// Package pairing implements the RO pair-selection schemes of Section IV
// of the paper: chains of physical neighbors (overlapping or disjoint),
// the 1-out-of-k masking scheme of Suh & Devadas, and the sequential
// pairing algorithm (LISA) of Yin & Qu, including its helper-data storage
// formats.
//
// The response-bit convention is fixed across the repository: a pair
// (A, B) produces bit 1 exactly when f_A > f_B at measurement time. The
// order in which a pair's two indices are stored in helper NVM therefore
// matters — the paper's Section VII-C observes that storing them sorted
// by enrollment frequency leaks every response bit outright, which is why
// enrollment offers both storage policies.
package pairing

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// Pair identifies two oscillators by array index; its response bit is
// [f_A > f_B].
type Pair struct {
	A, B int
}

// Swapped returns the pair with its stored order reversed, which inverts
// its response bit — the attacker's deterministic error injector.
func (p Pair) Swapped() Pair { return Pair{A: p.B, B: p.A} }

// ResponseBit evaluates one pair against a frequency snapshot.
func ResponseBit(f []float64, p Pair) bool { return f[p.A] > f[p.B] }

// Responses evaluates a pair list into a response bit vector.
func Responses(f []float64, pairs []Pair) bitvec.Vector {
	out := bitvec.New(len(pairs))
	for i, p := range pairs {
		if ResponseBit(f, p) {
			out.Set(i, true)
		}
	}
	return out
}

// SnakePath returns a boustrophedon walk over a rows x cols grid: row 0
// left to right, row 1 right to left, and so on. Consecutive path entries
// are physically adjacent oscillators, which is the property the
// chain-of-neighbors scheme wants (reduced impact of spatial
// correlation, paper §IV-A).
func SnakePath(rows, cols int) []int {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("pairing: invalid grid %dx%d", rows, cols))
	}
	path := make([]int, 0, rows*cols)
	for y := 0; y < rows; y++ {
		if y%2 == 0 {
			for x := 0; x < cols; x++ {
				path = append(path, y*cols+x)
			}
		} else {
			for x := cols - 1; x >= 0; x-- {
				path = append(path, y*cols+x)
			}
		}
	}
	return path
}

// ChainPairs pairs neighbors along the snake path. With disjoint=true it
// returns floor(N/2) non-overlapping pairs; otherwise N-1 overlapping
// pairs (each oscillator shared between two pairs), the two variants of
// paper §IV-A.
func ChainPairs(rows, cols int, disjoint bool) []Pair {
	path := SnakePath(rows, cols)
	var pairs []Pair
	if disjoint {
		for i := 0; i+1 < len(path); i += 2 {
			pairs = append(pairs, Pair{A: path[i], B: path[i+1]})
		}
	} else {
		for i := 0; i+1 < len(path); i++ {
			pairs = append(pairs, Pair{A: path[i], B: path[i+1]})
		}
	}
	return pairs
}

// StoragePolicy selects how a pair's two indices are written to helper
// NVM at enrollment.
type StoragePolicy int

const (
	// RandomizedStorage flips a fair coin per pair, so the stored order
	// carries no information about the response bit. This is the
	// "secure" variant the paper says proposals fail to specify.
	RandomizedStorage StoragePolicy = iota
	// SortedStorage stores the enrollment-faster oscillator first, so
	// every enrolled response bit is 1 and the helper data leaks the
	// key directly (paper §VII-C). Included for the leakage ablation.
	SortedStorage
)

// String implements fmt.Stringer.
func (s StoragePolicy) String() string {
	switch s {
	case RandomizedStorage:
		return "randomized"
	case SortedStorage:
		return "sorted"
	}
	return fmt.Sprintf("StoragePolicy(%d)", int(s))
}

// --- 1-out-of-k masking (paper §IV-B) ---

// MaskingHelper is the public helper data of the 1-out-of-k scheme: for
// each group of k candidate pairs, the index (0..k-1) of the selected
// pair.
type MaskingHelper struct {
	K        int
	Selected []int
}

// EnrollMasking partitions basePairs into consecutive groups of k and
// selects, per group, the pair maximizing |∆f| at enrollment. Trailing
// pairs that do not fill a complete group are discarded, following the
// original proposal.
func EnrollMasking(f []float64, basePairs []Pair, k int) (MaskingHelper, error) {
	if k < 1 {
		return MaskingHelper{}, fmt.Errorf("pairing: masking k=%d < 1", k)
	}
	groups := len(basePairs) / k
	if groups == 0 {
		return MaskingHelper{}, fmt.Errorf("pairing: %d pairs cannot fill a group of %d", len(basePairs), k)
	}
	h := MaskingHelper{K: k, Selected: make([]int, groups)}
	for g := 0; g < groups; g++ {
		best, bestAbs := 0, -1.0
		for i := 0; i < k; i++ {
			p := basePairs[g*k+i]
			d := f[p.A] - f[p.B]
			if d < 0 {
				d = -d
			}
			if d > bestAbs {
				best, bestAbs = i, d
			}
		}
		h.Selected[g] = best
	}
	return h, nil
}

// Validate applies SelectedPairsInto's structural checks without materializing
// the pair list — the allocation-free write-time validation a device runs
// on every helper install.
func (h MaskingHelper) Validate(basePairs []Pair) error {
	if h.K < 1 || len(h.Selected)*h.K > len(basePairs) {
		return fmt.Errorf("pairing: masking helper shape (k=%d, groups=%d) exceeds %d base pairs",
			h.K, len(h.Selected), len(basePairs))
	}
	for _, s := range h.Selected {
		if s < 0 || s >= h.K {
			return fmt.Errorf("pairing: masking selection %d outside group of %d", s, h.K)
		}
	}
	return nil
}

// SelectedPairsInto resolves the helper against the fixed base pair list
// into dst, regrown only when its capacity is insufficient (nil for a
// fresh list). It validates the helper as an honest device would:
// selections must index within each group. (The paper's attack on this
// scheme works through valid selections, so validation does not stop
// it.)
func (h MaskingHelper) SelectedPairsInto(dst []Pair, basePairs []Pair) ([]Pair, error) {
	if err := h.Validate(basePairs); err != nil {
		return nil, err
	}
	if cap(dst) < len(h.Selected) {
		dst = make([]Pair, len(h.Selected))
	}
	dst = dst[:len(h.Selected)]
	for g, s := range h.Selected {
		dst[g] = basePairs[g*h.K+s]
	}
	return dst, nil
}

// Append appends the masking helper's NVM encoding to dst and returns
// the extended slice: k, the group count, then one uint16 selection per
// group. Append(nil) allocates exactly once.
func (h MaskingHelper) Append(dst []byte) []byte {
	if need := len(dst) + 4 + 2*len(h.Selected); cap(dst) < need {
		// One allocation in every build (see bitvec.Vector.Append).
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(h.K))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Selected)))
	for _, s := range h.Selected {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(s))
	}
	return dst
}

// UnmarshalMaskingInto parses Append's encoding into *dst, reusing its
// selection storage when the capacity suffices. It accepts exactly the
// encodings Append produces. On error *dst is left unchanged.
func UnmarshalMaskingInto(dst *MaskingHelper, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("pairing: masking helper truncated (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint16(data[2:]))
	if len(data) != 4+2*n {
		return fmt.Errorf("pairing: masking helper length %d, want %d", len(data), 4+2*n)
	}
	dst.K = int(binary.LittleEndian.Uint16(data))
	dst.Selected = resize(dst.Selected, n)
	for i := range dst.Selected {
		dst.Selected[i] = int(binary.LittleEndian.Uint16(data[4+2*i:]))
	}
	return nil
}

// resize returns buf with length n, reusing its storage when the
// capacity suffices. A nil buf always gets fresh (non-nil) storage, so a
// parse into a zero destination equals a parse into a used one.
func resize[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// --- Sequential pairing algorithm (LISA, paper §IV-C, Algorithm 1) ---

// DescendingOrder returns the oscillator indices sorted by descending
// frequency, the walk order of Algorithm 1 here and of the group-based
// PUF's grouping (Algorithm 2). The order, ties included, is the one
// sort.Slice gives with less f[a] > f[b]: slices.SortFunc runs the same
// pdqsort and tests only cmp < 0.
func DescendingOrder(f []float64) []int {
	idx := make([]int, len(f))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if f[a] > f[b] {
			return -1
		}
		if f[a] < f[b] {
			return 1
		}
		return 0
	})
	return idx
}

// SeqPairHelper is the public helper data of the sequential pairing
// algorithm: the list of selected pairs in key order.
type SeqPairHelper struct {
	Pairs []Pair
}

// EnrollSeqPair runs Algorithm 1 of the paper on an enrollment frequency
// snapshot: sort indices by descending frequency; walk the bottom half,
// pairing entry j with the current top-half cursor i whenever their
// discrepancy exceeds the threshold. The stored within-pair order follows
// the policy; src is consulted only for RandomizedStorage.
func EnrollSeqPair(f []float64, thresholdMHz float64, policy StoragePolicy, src *rng.Source) SeqPairHelper {
	n := len(f)
	idx := DescendingOrder(f)

	pairs := make([]Pair, 0, n/2) // at most one pair per bottom-half entry
	i := 0
	for j := (n+1)/2 + 1 - 1; j < n; j++ { // j from ceil(N/2)+1 .. N, zero-based
		if i >= len(idx) || j >= len(idx) {
			break
		}
		if f[idx[i]]-f[idx[j]] > thresholdMHz {
			p := Pair{A: idx[i], B: idx[j]} // A is the faster oscillator
			if policy == RandomizedStorage && src.Bool() {
				p = p.Swapped()
			}
			pairs = append(pairs, p)
			i++
		}
	}
	return SeqPairHelper{Pairs: pairs}
}

// Validate applies the sanity checks the paper recommends (and notes are
// usually missing): indices in range and no oscillator reused across
// pairs. An attacker-manipulated helper that swaps the POSITIONS of two
// pairs, or the ORDER within one pair, still passes — which is the point
// of the attack.
//
// The used-oscillator set is a word bitset on the stack for arrays of up
// to 1024 oscillators, so a helper write validates without allocating.
func (h SeqPairHelper) Validate(n int) error {
	var stack [16]uint64
	used := stack[:]
	if words := (n + 63) / 64; words > len(stack) {
		used = make([]uint64, words)
	}
	for _, p := range h.Pairs {
		for _, v := range [2]int{p.A, p.B} { // array literal: no per-pair allocation
			if v < 0 || v >= n {
				return fmt.Errorf("pairing: index %d outside array of %d", v, n)
			}
			w, bit := v/64, uint64(1)<<(v%64)
			if used[w]&bit != 0 {
				return fmt.Errorf("pairing: oscillator %d reused across pairs", v)
			}
			used[w] |= bit
		}
	}
	return nil
}

// Append appends the pair list's NVM encoding to dst and returns the
// extended slice; Append(nil) allocates exactly the encoded size.
func (h SeqPairHelper) Append(dst []byte) []byte {
	if need := len(dst) + 2 + 4*len(h.Pairs); cap(dst) < need {
		// One allocation in every build (see bitvec.Vector.Append).
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Pairs)))
	for _, p := range h.Pairs {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(p.A))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(p.B))
	}
	return dst
}

// UnmarshalSeqPairInto parses Append's encoding into *dst, reusing its
// pair storage when the capacity suffices. It accepts exactly the
// encodings Append produces. On error *dst is left unchanged.
func UnmarshalSeqPairInto(dst *SeqPairHelper, data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("pairing: seqpair helper truncated")
	}
	n := int(binary.LittleEndian.Uint16(data))
	if len(data) != 2+4*n {
		return fmt.Errorf("pairing: seqpair helper length %d, want %d", len(data), 2+4*n)
	}
	dst.Pairs = resize(dst.Pairs, n)
	for i := range dst.Pairs {
		dst.Pairs[i].A = int(binary.LittleEndian.Uint16(data[2+4*i:]))
		dst.Pairs[i].B = int(binary.LittleEndian.Uint16(data[4+4*i:]))
	}
	return nil
}
