package transcript

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
)

// The bit-exact values a Run produces are pinned by the golden matrix in
// testdata/transcripts/ at the repository root (TestGoldenTranscripts);
// these tests cover the harness surface itself — error paths, the
// serialization round trip, and the shape of the golden matrix.

// unmarshal parses a golden file.
func unmarshal(data []byte) ([]Transcript, error) {
	var out []Transcript
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestRunRejectsUnknownAttack(t *testing.T) {
	_, err := Run(context.Background(), Spec{Attack: "nonexistent", Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("err = %v, want unknown-attack error naming the attack", err)
	}
}

func TestRunRejectsUnknownNoiseModel(t *testing.T) {
	_, err := Run(context.Background(), Spec{Attack: "seqpair", Seed: 1, Noise: "thermal"})
	if err == nil || !strings.Contains(err.Error(), "unknown noise model") {
		t.Fatalf("err = %v, want unknown-noise-model error", err)
	}
}

// TestRunRejectsRemovedStreamModel pins that a spec naming the removed
// sequential-stream model fails with an error saying so, instead of
// silently running under counter noise.
func TestRunRejectsRemovedStreamModel(t *testing.T) {
	_, err := Run(context.Background(), Spec{Attack: "seqpair", Seed: 1, Noise: "stream"})
	if err == nil || !strings.Contains(err.Error(), "stream noise model was removed") {
		t.Fatalf("err = %v, want removed-model error", err)
	}
}

// TestRunEmptyNoiseIsCounter pins the single-valued Noise axis: an
// empty model name runs exactly the counter cell.
func TestRunEmptyNoiseIsCounter(t *testing.T) {
	ctx := context.Background()
	empty, err := Run(ctx, Spec{Attack: "masking", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	counter, err := Run(ctx, Spec{Attack: "masking", Seed: 11, Noise: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	empty.Spec.Noise = "counter"
	if !reflect.DeepEqual(empty, counter) {
		t.Fatalf("empty-noise transcript differs from counter:\nempty:   %+v\ncounter: %+v", empty, counter)
	}
}

func TestMarshalRoundTrips(t *testing.T) {
	tr, err := Run(context.Background(), Spec{Attack: "groupbased", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal([]Transcript{tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("marshaled transcripts must end in a newline")
	}
	back, err := unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("round trip returned %d transcripts", len(back))
	}
	data2, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("marshal/unmarshal/marshal is not a fixed point")
	}
}

func TestGoldenFilesCoverTheFullMatrix(t *testing.T) {
	files := GoldenFiles()
	attacks := Attacks()
	if len(files) != len(attacks) {
		t.Fatalf("%d golden files, want one per attack %v", len(files), attacks)
	}
	for _, a := range attacks {
		specs, ok := files[a+"_counter.json"]
		if !ok {
			t.Fatalf("matrix cell %s missing", a)
		}
		if len(specs) == 0 {
			t.Fatalf("cell %s has no seeds", a)
		}
		for _, s := range specs {
			if s.Attack != a || s.Noise != "counter" {
				t.Fatalf("spec %+v filed under %s", s, a)
			}
			if s.Attack == "seqpair" && !s.Expurgate {
				t.Fatal("seqpair golden cells must use the expurgated code")
			}
		}
	}
}

// TestEnrollMatchesRun pins Enroll to the device Run attacks: for the
// first golden spec of each attack, the default attack against the
// Enroll'd target, unpooled and pooled, reproduces the golden
// transcript's key, query count and enrolled-key digest.
func TestEnrollMatchesRun(t *testing.T) {
	for file, specs := range GoldenFiles() {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "transcripts", file))
		if err != nil {
			t.Fatal(err)
		}
		golden, err := unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		spec, want := specs[0], golden[0]
		if !reflect.DeepEqual(want.Spec, spec) {
			t.Fatalf("%s: first golden spec %+v, want %+v", file, want.Spec, spec)
		}
		// Unpooled, and pooled into the carcass of the file's second
		// seed: both are the device Run attacks.
		pool := campaign.NewPool()
		if _, _, err := Enroll(specs[1], pool); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, cache := range []Cache{nil, pool} {
			target, truth, err := Enroll(spec, cache)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			rep, err := attack.Run(context.Background(), spec.Attack, target, attack.Options{Dist: attack.DefaultDistinguisher()})
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			sum := sha256.Sum256([]byte(truth.String()))
			if got := hex.EncodeToString(sum[:]); got != want.EnrolledKeyDigest {
				t.Errorf("%s pooled=%v: enrolled key digest %s, want %s", file, cache != nil, got, want.EnrolledKeyDigest)
			}
			if rep.Key.String() != want.Key || rep.Queries != want.Queries {
				t.Errorf("%s pooled=%v: key %q in %d queries, want %q in %d", file, cache != nil, rep.Key, rep.Queries, want.Key, want.Queries)
			}
		}
	}
}
