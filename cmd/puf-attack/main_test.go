package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attack"
)

func TestDistinguisherStrategy(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		want     attack.Strategy
		ok       bool
	}{
		{"sequential", attack.Sequential, true},
		{"fixed", attack.FixedSample, true},
		{"fixed-sample", 0, false},
		{"", 0, false},
		{"Fixed", 0, false},
		{"sprt", 0, false},
		{"sequential ", 0, false},
	} {
		d, err := distinguisher(tc.strategy)
		if (err == nil) != tc.ok {
			t.Errorf("distinguisher(%q) err = %v, want ok=%v", tc.strategy, err, tc.ok)
			continue
		}
		if tc.ok && d.Strategy != tc.want {
			t.Errorf("distinguisher(%q) = %v, want %v", tc.strategy, d.Strategy, tc.want)
		}
	}
}

// TestUnknownStrategyExitsUsage runs the built command: an unknown
// -strategy must stop with exit 2 and name the valid values before any
// device is enrolled.
func TestUnknownStrategyExitsUsage(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "puf-attack")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-strategy", "bogus").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "want sequential or fixed") || strings.Contains(string(out), "enrolled") {
		t.Fatalf("output is not a usage error:\n%s", out)
	}
}

// TestRunEveryRegisteredAttack runs every registered attack against its
// canonical device: an attack registered without a device fails here.
// Attacks that recover a key report an exact recovery; a relation-only
// attack prints no key verdict.
func TestRunEveryRegisteredAttack(t *testing.T) {
	for _, name := range attack.Names() {
		var out strings.Builder
		if err := run(context.Background(), &out, name, 1, attack.Options{}, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := out.String()
		if !strings.HasPrefix(text, "enrolled "+name+" device:") {
			t.Errorf("%s: banner missing:\n%s", name, text)
		}
		switch {
		case strings.Contains(text, "recovered key"):
			if !strings.Contains(text, "exact=true") {
				t.Errorf("%s: key not recovered exactly:\n%s", name, text)
			}
		case strings.Contains(text, "exact="):
			t.Errorf("%s: keyless report prints a key verdict:\n%s", name, text)
		}
	}
}
