package attack

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
)

// referencePartition is the sort-and-rescan partition designPartition
// replaced: a stable sort of the non-target oscillators by level, then
// per formed pair a rescan of every level class for the two largest
// (ties to the lower class index). It returns the assignment, the
// forced bit of every two-member group and their count p.
func referencePartition(n, a, b int, levels []int) ([]int, []bool, int) {
	assign := make([]int, n)
	predicted := make([]bool, n)
	assign[a], assign[b] = 0, 0
	var ros []int
	for i := 0; i < n; i++ {
		if i != a && i != b {
			ros = append(ros, i)
		}
	}
	slices.SortStableFunc(ros, func(x, y int) int { return cmp.Compare(levels[x], levels[y]) })
	var classes [][]int
	for at := 0; at < len(ros); {
		end := at
		for end < len(ros) && levels[ros[end]] == levels[ros[at]] {
			end++
		}
		classes = append(classes, ros[at:end:end])
		at = end
	}
	largestTwo := func() (int, int) {
		i1, i2 := -1, -1
		for i := range classes {
			if len(classes[i]) == 0 {
				continue
			}
			if i1 == -1 || len(classes[i]) > len(classes[i1]) {
				i2 = i1
				i1 = i
			} else if i2 == -1 || len(classes[i]) > len(classes[i2]) {
				i2 = i
			}
		}
		return i1, i2
	}
	id := 1
	for {
		i1, i2 := largestTwo()
		if i1 == -1 || i2 == -1 {
			break
		}
		ro1 := classes[i1][len(classes[i1])-1]
		ro2 := classes[i2][len(classes[i2])-1]
		classes[i1] = classes[i1][:len(classes[i1])-1]
		classes[i2] = classes[i2][:len(classes[i2])-1]
		assign[ro1], assign[ro2] = id, id
		low, high := min(ro1, ro2), max(ro1, ro2)
		predicted[id] = levels[high] < levels[low]
		id++
	}
	p := id
	for _, class := range classes {
		for _, ro := range class {
			assign[ro] = id
			id++
		}
	}
	return assign, predicted[:p], p
}

// TestDesignPartitionMatchesReference pins the counting-sort, bitset
// partition to the sort-and-rescan reference for every target pair on
// square, wide, tall and one-dimensional arrays, through one reused
// scratch.
func TestDesignPartitionMatchesReference(t *testing.T) {
	var sc gbScratch
	for _, geom := range [][2]int{{4, 10}, {8, 16}, {5, 5}, {3, 7}, {1, 12}, {12, 1}} {
		rows, cols := geom[0], geom[1]
		n := rows * cols
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				_, levels := levelPlane(&sc, cols, rows, a%cols, a/cols, b%cols, b/cols, groupBasedPatternMHz)
				wantAssign, wantPred, wantP := referencePartition(n, a, b, levels)
				p := designPartition(&sc, n, a, b, levels)
				if p != wantP || !slices.Equal(sc.assign, wantAssign) || !slices.Equal(sc.predicted[:p], wantPred) {
					t.Fatalf("%dx%d pair (%d,%d): p=%d assign=%v predicted=%v, reference p=%d assign=%v predicted=%v",
						rows, cols, a, b, p, sc.assign, sc.predicted[:p], wantP, wantAssign, wantPred)
				}
			}
		}
	}
}

// BenchmarkGroupBasedPairDecision times §VI-C pair decisions — build
// the attacker partition and both hypothesis arms, then run the two-arm
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
