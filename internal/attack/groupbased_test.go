package attack

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
)

// partitionDigest is the SHA-256 of every partition TestPartitionDigest
// builds, as the counting-sort partition this one replaced built them.
const partitionDigest = "cc52e908eb8865fc65e9ba1841f3cbddbf0aa625faa67a171cedadf31d104663"

// TestPartitionDigest pins the attacker partition of every target pair
// on square, wide, tall and one-dimensional arrays: one line of (p,
// assign, predicted) per pair, hashed. Only the 4x10 partitions reach a
// golden.
func TestPartitionDigest(t *testing.T) {
	h := sha256.New()
	for _, geom := range [][2]int{{4, 10}, {8, 16}, {5, 5}, {3, 7}, {1, 12}, {12, 1}} {
		rows, cols := geom[0], geom[1]
		n := rows * cols
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				_, levels := levelPlane(cols, rows, a%cols, a/cols, b%cols, b/cols, groupBasedPatternMHz)
				assign, predicted := partition(n, a, b, levels)
				fmt.Fprintln(h, len(predicted), assign, predicted)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != partitionDigest {
		t.Fatalf("partition digest %s, want %s", got, partitionDigest)
	}
}

// BenchmarkGroupBasedPairDecision times §VI-C pair decisions — look up
// the interned plan, build both hypothesis arms, then run the two-arm
// test on the device — against the canonical 4x10 group-based device.
// One op is one pass over the fixed set of intra-group pairs of the
// enrolled grouping, from the same state every time: the device is
// re-enrolled from its seed into its own carcass (bit-identical to a
// fresh enrollment), untimed, before each pass; the arms are a pure
// function of the decision. So every op spends the same queries, and
// queries/decision does not depend on b.N.
func BenchmarkGroupBasedPairDecision(b *testing.B) {
	const seed = 9
	d := groupBasedDevice(b, seed)
	params := d.Params()
	original := d.ReadHelper()
	var pairs [][2]int
	for _, g := range original.Grouping.Members() {
		for i := range g {
			for j := i + 1; j < len(g); j++ {
				pairs = append(pairs, [2]int{g[i], g[j]})
			}
		}
	}
	budget := NewBudget(0)
	sc := armScratch{code: d.Params().Code, inject: d.Params().Code.T(), compose: groupBasedImage}
	ctx := context.Background()
	var tgt Target
	reset := func() {
		var err error
		if d, err = device.EnrollGroupBasedReuse(d, params, rng.New(seed), rng.New(seed+1)); err != nil {
			b.Fatal(err)
		}
		// A fresh adapter: the old one's write cache keys on the NVM
		// generation, which re-enrollment restarts.
		tgt = NewGroupBasedTarget(d)
	}
	pass := func() int {
		spec := tgt.Spec()
		start := tgt.Queries()
		plans := pairPlanSlots(spec.Rows, spec.Cols)
		for _, p := range pairs {
			plan := pairPlanFor(plans, spec.Rows, spec.Cols, p[0], p[1])
			if _, err := decidePairOrder(ctx, tgt, original.Poly, DefaultDistinguisher(), budget, &sc, plan); err != nil {
				b.Fatal(err)
			}
		}
		return tgt.Queries() - start
	}
	// Grow every scratch buffer before timing.
	reset()
	want := pass()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		reset()
		b.StartTimer()
		if got := pass(); got != want {
			b.Fatalf("a pass spent %d queries, the first %d: the reset state differs", got, want)
		}
	}
	b.ReportMetric(float64(want)/float64(len(pairs)), "queries/decision")
}
