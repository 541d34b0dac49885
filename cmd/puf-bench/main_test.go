package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckBaseline pins the perf gate: allocs/op gates on any host,
// ns/op only between equal host stamps, and a mismatch is reported
// with both stamps rather than failing.
func TestCheckBaseline(t *testing.T) {
	here := Stamp{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", GOMAXPROCS: 2}
	there := here
	there.CPU = "EPYC"
	artifact := func(s Stamp, ns, allocs int64) Artifact {
		return Artifact{Stamp: s, Benchmarks: map[string]BenchRecord{
			"AttackSeqPair": {NsPerOp: ns, AllocsPerOp: allocs},
		}}
	}
	base := artifact(here, 1000, 500)
	for _, c := range []struct {
		name     string
		cur      Artifact
		fail     bool
		contains string
	}{
		{"same stamp, no regression", artifact(here, 1100, 505), false, "gated"},
		{"same stamp, ns regression", artifact(here, 1200, 500), true, "NS REGRESSION"},
		{"other stamp, ns regression", artifact(there, 1200, 500), false, `baseline stamped go1.24.0 linux/amd64 "Xeon" GOMAXPROCS=2, this run go1.24.0 linux/amd64 "EPYC" GOMAXPROCS=2`},
		{"same stamp, allocs regression", artifact(here, 1000, 511), true, "ALLOC REGRESSION"},
		{"other stamp, allocs regression", artifact(there, 1000, 511), true, "ALLOC REGRESSION"},
		{"unstamped baseline, ns regression", artifact(Stamp{}, 1200, 500), false, "not enforced"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := compareBaseline(&out, c.cur, base, 15)
			if (err != nil) != c.fail {
				t.Fatalf("err = %v, want failure %v\n%s", err, c.fail, out.String())
			}
			if !strings.Contains(out.String(), c.contains) {
				t.Fatalf("output lacks %q:\n%s", c.contains, out.String())
			}
		})
	}
}

// TestBaselineReadBeforeWrite runs the -json flow with -json-out naming
// the baseline file itself (the default -json-out is the committed
// BENCH_attacks.json). The gate must compare against the bytes that
// were there before the run, so an allocs regression still fails, and
// the new artifact must still be written.
func TestBaselineReadBeforeWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_attacks.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks": {"AttackSeqPair": {"ns_per_op": 1000, "allocs_per_op": 100}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	measure := func(benchConfig) (Artifact, error) {
		return Artifact{Benchmarks: map[string]BenchRecord{
			"AttackSeqPair": {NsPerOp: 1000, AllocsPerOp: 200},
		}}, nil
	}
	err := runJSONBench(benchConfig{jsonOut: path, baseline: path, nsGatePct: 15}, measure)
	if err == nil || !strings.Contains(err.Error(), "allocs/op 100 -> 200") {
		t.Fatalf("err = %v, want the allocs regression against the committed baseline", err)
	}
	written, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := written.Benchmarks["AttackSeqPair"].AllocsPerOp; got != 200 {
		t.Fatalf("artifact at -json-out holds %d allocs/op, want this run's 200", got)
	}
}
