package main

import (
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
