package pairing

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/silicon"
)

func freqs(seed uint64, n int) []float64 {
	r := rng.New(seed)
	f := make([]float64, n)
	for i := range f {
		f[i] = 200 + r.NormScaled(0, 2)
	}
	return f
}

func TestResponseBitConvention(t *testing.T) {
	f := []float64{10, 20}
	if ResponseBit(f, Pair{A: 0, B: 1}) {
		t.Fatal("f_A < f_B must give 0")
	}
	if !ResponseBit(f, Pair{A: 1, B: 0}) {
		t.Fatal("f_A > f_B must give 1")
	}
}

func TestSwappedInvertsBit(t *testing.T) {
	fn := func(seed uint64) bool {
		f := freqs(seed, 2)
		if f[0] == f[1] {
			return true
		}
		p := Pair{A: 0, B: 1}
		return ResponseBit(f, p) != ResponseBit(f, p.Swapped())
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestSnakePathAdjacency(t *testing.T) {
	rows, cols := 4, 10
	path := SnakePath(rows, cols)
	if len(path) != rows*cols {
		t.Fatalf("path length %d", len(path))
	}
	seen := make(map[int]bool)
	for _, v := range path {
		if seen[v] {
			t.Fatalf("path revisits %d", v)
		}
		seen[v] = true
	}
	// Consecutive entries are grid neighbors (Manhattan distance 1).
	for i := 1; i < len(path); i++ {
		x1, y1 := path[i-1]%cols, path[i-1]/cols
		x2, y2 := path[i]%cols, path[i]/cols
		if abs(x1-x2)+abs(y1-y2) != 1 {
			t.Fatalf("path step %d not adjacent: (%d,%d)->(%d,%d)", i, x1, y1, x2, y2)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestChainPairsCounts(t *testing.T) {
	// Paper §IV-A: disjoint pairs give floor(N/2) bits, shared ROs give
	// up to N-1 bits.
	d := ChainPairs(4, 10, true)
	if len(d) != 20 {
		t.Fatalf("disjoint chain: %d pairs, want 20", len(d))
	}
	o := ChainPairs(4, 10, false)
	if len(o) != 39 {
		t.Fatalf("overlapping chain: %d pairs, want 39", len(o))
	}
	// Disjoint: no oscillator reused.
	used := make(map[int]bool)
	for _, p := range d {
		if used[p.A] || used[p.B] {
			t.Fatal("disjoint chain reuses an oscillator")
		}
		used[p.A], used[p.B] = true, true
	}
}

func TestEnrollMaskingPicksMaxDelta(t *testing.T) {
	f := []float64{10, 11, 10, 15, 10, 12} // pairs (0,1) d=1, (2,3) d=5, (4,5) d=2
	base := []Pair{{0, 1}, {2, 3}, {4, 5}}
	h, err := EnrollMasking(f, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Selected) != 1 || h.Selected[0] != 1 {
		t.Fatalf("selected %v, want [1]", h.Selected)
	}
	sel, err := h.SelectedPairsInto(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != base[1] {
		t.Fatalf("selected pair %v", sel[0])
	}
}

func TestEnrollMaskingReliabilityGain(t *testing.T) {
	// The selected pairs must have a larger mean |∆f| than the base
	// pairs — the whole point of 1-out-of-k (paper §IV-B).
	a := silicon.NewArray(silicon.DefaultConfig(8, 16), rng.New(3))
	f := a.MeasureIntoWith(make([]float64, a.N()), a.Config().NominalEnv(), a.NewNoise(rng.New(4)))
	base := ChainPairs(8, 16, true)
	h, err := EnrollMasking(f, base, 4)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := h.SelectedPairsInto(nil, base)
	meanAbs := func(ps []Pair) float64 {
		var s float64
		for _, p := range ps {
			s += math.Abs(f[p.A] - f[p.B])
		}
		return s / float64(len(ps))
	}
	if meanAbs(sel) <= meanAbs(base) {
		t.Fatalf("selection did not improve |∆f|: %v vs %v", meanAbs(sel), meanAbs(base))
	}
}

func TestEnrollMaskingErrors(t *testing.T) {
	f := []float64{1, 2}
	if _, err := EnrollMasking(f, []Pair{{0, 1}}, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := EnrollMasking(f, []Pair{{0, 1}}, 2); err == nil {
		t.Fatal("too few pairs must fail")
	}
}

func TestMaskingHelperValidation(t *testing.T) {
	base := []Pair{{0, 1}, {2, 3}}
	bad := MaskingHelper{K: 2, Selected: []int{2}}
	if _, err := bad.SelectedPairsInto(nil, base); err == nil {
		t.Fatal("selection >= k must fail")
	}
	tooMany := MaskingHelper{K: 2, Selected: []int{0, 0}}
	if _, err := tooMany.SelectedPairsInto(nil, base); err == nil {
		t.Fatal("more groups than base pairs must fail")
	}
}

func TestMaskingMarshalRoundTrip(t *testing.T) {
	h := MaskingHelper{K: 5, Selected: []int{0, 4, 2, 3}}
	var back MaskingHelper
	if err := UnmarshalMaskingInto(&back, h.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Append(nil) }); allocs != 1 {
		t.Fatalf("Append(nil) allocates %.0f/op, want 1", allocs)
	}
	if back.K != h.K || len(back.Selected) != len(h.Selected) {
		t.Fatalf("round trip %+v", back)
	}
	for i := range h.Selected {
		if back.Selected[i] != h.Selected[i] {
			t.Fatalf("round trip %+v", back)
		}
	}
	if err := UnmarshalMaskingInto(&back, []byte{1}); err == nil {
		t.Fatal("truncated data must fail")
	}
	if err := UnmarshalMaskingInto(&back, h.Append(nil)[:5]); err == nil {
		t.Fatal("short data must fail")
	}
}

func TestSeqPairThresholdRespected(t *testing.T) {
	f := freqs(1, 64)
	const th = 1.5
	h := EnrollSeqPair(f, th, SortedStorage, nil)
	if len(h.Pairs) == 0 {
		t.Fatal("no pairs selected")
	}
	for _, p := range h.Pairs {
		if f[p.A]-f[p.B] <= th {
			t.Fatalf("pair (%d,%d): discrepancy %v <= threshold", p.A, p.B, f[p.A]-f[p.B])
		}
	}
}

func TestSeqPairDisjoint(t *testing.T) {
	f := freqs(2, 64)
	h := EnrollSeqPair(f, 0.5, SortedStorage, nil)
	if err := h.Validate(64); err != nil {
		t.Fatal(err)
	}
	if len(h.Pairs) > 32 {
		t.Fatalf("%d pairs exceed floor(N/2)", len(h.Pairs))
	}
}

func TestSeqPairSortedStorageLeaksKey(t *testing.T) {
	// With SortedStorage every enrolled response bit is 1 — the direct
	// leakage of paper §VII-C.
	f := freqs(3, 64)
	h := EnrollSeqPair(f, 1.0, SortedStorage, nil)
	resp := Responses(f, h.Pairs)
	if resp.Weight() != resp.Len() {
		t.Fatalf("sorted storage: %d of %d bits set, want all", resp.Weight(), resp.Len())
	}
}

func TestSeqPairRandomizedStorageBalances(t *testing.T) {
	// Randomized storage should give ~50% ones across enrollments.
	ones, total := 0, 0
	for seed := uint64(0); seed < 50; seed++ {
		f := freqs(seed, 64)
		h := EnrollSeqPair(f, 1.0, RandomizedStorage, rng.New(seed+1000))
		resp := Responses(f, h.Pairs)
		ones += resp.Weight()
		total += resp.Len()
	}
	frac := float64(ones) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("randomized storage bit balance %v", frac)
	}
}

func TestSeqPairZeroThresholdPairsHalf(t *testing.T) {
	// With threshold 0 and distinct frequencies the loop pairs every
	// bottom-half entry: floor(N/2) pairs.
	f := freqs(4, 32)
	h := EnrollSeqPair(f, 0, SortedStorage, nil)
	if len(h.Pairs) != 16 {
		t.Fatalf("%d pairs, want 16", len(h.Pairs))
	}
}

func TestSeqPairValidateCatchesManipulation(t *testing.T) {
	h := SeqPairHelper{Pairs: []Pair{{0, 1}, {1, 2}}}
	if err := h.Validate(8); err == nil {
		t.Fatal("reuse must be rejected")
	}
	h2 := SeqPairHelper{Pairs: []Pair{{0, 9}}}
	if err := h2.Validate(8); err == nil {
		t.Fatal("out-of-range index must be rejected")
	}
	// But the attack's manipulations pass validation:
	f := freqs(5, 32)
	orig := EnrollSeqPair(f, 0.5, RandomizedStorage, rng.New(6))
	if len(orig.Pairs) < 2 {
		t.Skip("not enough pairs")
	}
	swappedPositions := SeqPairHelper{Pairs: append([]Pair(nil), orig.Pairs...)}
	swappedPositions.Pairs[0], swappedPositions.Pairs[1] = swappedPositions.Pairs[1], swappedPositions.Pairs[0]
	if err := swappedPositions.Validate(32); err != nil {
		t.Fatalf("position swap should pass validation: %v", err)
	}
	swappedOrder := SeqPairHelper{Pairs: append([]Pair(nil), orig.Pairs...)}
	swappedOrder.Pairs[0] = swappedOrder.Pairs[0].Swapped()
	if err := swappedOrder.Validate(32); err != nil {
		t.Fatalf("within-pair swap should pass validation: %v", err)
	}
}

// TestSeqPairValidateBitset pins the used-oscillator bitset: reuse is
// caught in every word, on the stack-sized path and beyond it, and a
// validation on the stack path allocates nothing (it runs on every
// seqpair helper write).
func TestSeqPairValidateBitset(t *testing.T) {
	for _, n := range []int{64, 1024, 1025, 3000} {
		last := n - 1
		ok := SeqPairHelper{Pairs: []Pair{{0, last}, {last - 1, 1}}}
		if n > 128 {
			ok.Pairs = append(ok.Pairs, Pair{63, 64}) // straddles a word boundary
		}
		if err := ok.Validate(n); err != nil {
			t.Fatalf("n=%d: distinct oscillators rejected: %v", n, err)
		}
		reused := SeqPairHelper{Pairs: []Pair{{0, last}, {last, 1}}}
		if err := reused.Validate(n); err == nil {
			t.Fatalf("n=%d: oscillator %d reused across pairs accepted", n, last)
		}
	}
	h := EnrollSeqPair(freqs(7, 1024), 0.5, RandomizedStorage, rng.New(8))
	if got := testing.AllocsPerRun(20, func() { _ = h.Validate(1024) }); got != 0 {
		t.Fatalf("Validate allocates %.1f/op at 1024 oscillators, want 0", got)
	}
}

func TestSeqPairMarshalRoundTrip(t *testing.T) {
	h := SeqPairHelper{Pairs: []Pair{{3, 7}, {1, 30}, {12, 5}}}
	var back SeqPairHelper
	if err := UnmarshalSeqPairInto(&back, h.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Append(nil) }); allocs != 1 {
		t.Fatalf("Append(nil) allocates %.0f/op, want 1", allocs)
	}
	// Append extends dst in place: a prefix survives, and the encoding
	// after it is the same bytes.
	if got := h.Append([]byte{0xee}); got[0] != 0xee || !bytes.Equal(got[1:], h.Append(nil)) {
		t.Fatalf("Append after a prefix = % x", got)
	}
	if len(back.Pairs) != 3 {
		t.Fatalf("round trip %+v", back)
	}
	for i := range h.Pairs {
		if back.Pairs[i] != h.Pairs[i] {
			t.Fatalf("round trip %+v", back)
		}
	}
	if err := UnmarshalSeqPairInto(&back, nil); err == nil {
		t.Fatal("nil data must fail")
	}
	if err := UnmarshalSeqPairInto(&back, h.Append(nil)[:7]); err == nil {
		t.Fatal("short data must fail")
	}
}

func TestResponsesLengthAndOrder(t *testing.T) {
	f := []float64{5, 1, 4, 2}
	pairs := []Pair{{0, 1}, {1, 2}, {3, 1}}
	r := Responses(f, pairs)
	if r.Len() != 3 {
		t.Fatalf("length %d", r.Len())
	}
	want := "101"
	if r.String() != want {
		t.Fatalf("responses %s, want %s", r, want)
	}
}

func TestSnakePathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SnakePath(0, 5)
}

// TestDescendingOrderMatchesSortSlice pins DescendingOrder to the order
// sort.Slice gave Algorithms 1 and 2 before, ties included, on
// frequency maps floored to a coarse counter grid (count = floor(f ·
// window) edges per window µs), where most oscillators share a
// frequency with another one.
func TestDescendingOrderMatchesSortSlice(t *testing.T) {
	for _, window := range []float64{0.5, 1, 2} {
		ties := 0
		for seed := uint64(1); seed <= 25; seed++ {
			cfg := silicon.DefaultConfig(8, 16)
			a := silicon.NewArray(cfg, rng.New(seed))
			nm := a.NewNoise(rng.New(seed + 1))
			f := a.MeasureIntoWith(make([]float64, a.N()), cfg.NominalEnv(), nm)
			for i := range f {
				f[i] = math.Floor(f[i]*window) / window
			}
			want := make([]int, len(f))
			for i := range want {
				want[i] = i
			}
			sort.Slice(want, func(a, b int) bool { return f[want[a]] > f[want[b]] })
			if got := DescendingOrder(f); !slices.Equal(got, want) {
				t.Fatalf("window %v seed %d: order %v, sort.Slice %v", window, seed, got, want)
			}
			for i := 1; i < len(want); i++ {
				if f[want[i]] == f[want[i-1]] {
					ties++
				}
			}
		}
		if ties < 25*64 {
			t.Errorf("window %v: %d tied neighbors over 25 maps, want a tie-heavy input", window, ties)
		}
	}
}
