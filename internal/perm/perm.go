// Package perm implements the permutation codings of the group-based RO
// PUF (Table I of the paper): the compact coding, which is the
// lexicographic rank of the frequency order in ceil(log2(n!)) bits, and
// the Kendall coding, which spends one bit per RO pair so that a single
// flip of neighboring frequencies changes exactly one bit.
//
// An "order" throughout this package is a permutation o of {0..n-1} where
// o[k] is the index of the RO holding position k when the group is sorted
// by descending frequency. For the paper's four-RO example the labels
// A, B, C, D map to indices 0..3; the order ABCD is [0 1 2 3].
package perm

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
)

// Log2Factorial returns log2(n!), the entropy in bits of a uniformly
// random order of n elements (the paper's log2(N!) and sum log2(|Gj|!)).
func Log2Factorial(n int) float64 {
	var s float64
	for i := 2; i <= n; i++ {
		s += math.Log2(float64(i))
	}
	return s
}

// compactBitsTable memoizes CompactBits for small n: the group decoders
// call it once per group per reconstruction, and recomputing a log2
// summation there was a measurable slice of the group-based oracle
// query. Entries are produced by the exact formula below, so the table
// is an equivalence, not an approximation.
var compactBitsTable = func() [65]int {
	var t [65]int
	for n := range t {
		t[n] = int(math.Ceil(Log2Factorial(n) - 1e-9))
	}
	return t
}()

// CompactBits returns ceil(log2(n!)), the length of the compact coding.
func CompactBits(n int) int {
	if n >= 0 && n < len(compactBitsTable) {
		return compactBitsTable[n]
	}
	return int(math.Ceil(Log2Factorial(n) - 1e-9))
}

// KendallBits returns n(n-1)/2, the length of the Kendall coding.
func KendallBits(n int) int { return n * (n - 1) / 2 }

// validOrder panics unless o is a permutation of {0..n-1}; coding a
// malformed order is a programming error.
func validOrder(o []int) {
	seen := make([]bool, len(o))
	for _, v := range o {
		if v < 0 || v >= len(o) || seen[v] {
			panic(fmt.Sprintf("perm: %v is not a permutation", o))
		}
		seen[v] = true
	}
}

// Rank returns the lexicographic rank of order o among all permutations
// of its length, via the Lehmer code. Rank fits in uint64 for n <= 20.
func Rank(o []int) uint64 {
	validOrder(o)
	n := len(o)
	if n > 20 {
		panic("perm: rank overflow beyond n=20")
	}
	var rank uint64
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if o[j] < o[i] {
				smaller++
			}
		}
		rank = rank*uint64(n-i) + uint64(smaller)
	}
	// The loop above multiplies by falling factorials in the right
	// sequence: rank = sum lehmer[i] * (n-1-i)!.
	return rank
}

// Unrank is the inverse of Rank for permutations of length n.
func Unrank(rank uint64, n int) []int {
	if n > 20 {
		panic("perm: unrank overflow beyond n=20")
	}
	// Factorial number system digits.
	digits := make([]uint64, n)
	for i := n; i >= 1; i-- {
		digits[i-1] = rank % uint64(n-i+1)
		rank /= uint64(n - i + 1)
	}
	// digits[i] counts how many unused elements are smaller.
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		d := int(digits[i])
		out[i] = avail[d]
		avail = append(avail[:d], avail[d+1:]...)
	}
	return out
}

// CompactEncode returns the compact coding of order o: its lexicographic
// rank written big-endian in CompactBits(len(o)) bits, exactly as in the
// second column of the paper's Table I.
func CompactEncode(o []int) bitvec.Vector {
	r := Rank(o)
	bits := CompactBits(len(o))
	out := bitvec.New(bits)
	for i := 0; i < bits; i++ {
		if r>>uint(bits-1-i)&1 == 1 {
			out.Set(i, true)
		}
	}
	return out
}

// KendallEncode returns the Kendall coding of order o: one bit per
// unordered pair (i, j) with i < j in label order, listed
// lexicographically ((0,1), (0,2), ..., (n-2,n-1)); the bit is 1 exactly
// when label j precedes label i in the order (the pair is discordant with
// label order). This reproduces the third column of Table I.
func KendallEncode(o []int) bitvec.Vector {
	validOrder(o)
	n := len(o)
	pos := make([]int, n)
	for p, label := range o {
		pos[label] = p
	}
	out := bitvec.New(KendallBits(n))
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[j] < pos[i] {
				out.Set(k, true)
			}
			k++
		}
	}
	return out
}

// KendallDecode reconstructs the order from a Kendall coding. Not every
// bit pattern is a valid coding (the pairwise "who precedes whom"
// tournament must be transitive); invalid patterns yield an error. This
// non-uniformity is why the group-based construction needs the entropy
// packing step.
func KendallDecode(v bitvec.Vector, n int) ([]int, error) {
	if v.Len() != KendallBits(n) {
		return nil, fmt.Errorf("perm: kendall coding length %d, want %d", v.Len(), KendallBits(n))
	}
	// wins[i] = number of labels that label i precedes. In a total
	// order these are distinct values n-1 .. 0.
	wins := make([]int, n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v.Get(k) {
				wins[j]++
			} else {
				wins[i]++
			}
			k++
		}
	}
	order := make([]int, n)
	seen := make([]bool, n)
	for label, w := range wins {
		p := n - 1 - w
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("perm: kendall coding %s is not transitive", v)
		}
		seen[p] = true
		order[p] = label
	}
	// A consistent wins vector does not by itself guarantee every pair
	// bit agrees with the reconstructed order; verify.
	if !KendallEncode(order).Equal(v) {
		return nil, fmt.Errorf("perm: kendall coding %s is inconsistent", v)
	}
	return order, nil
}

// Scratch holds the reusable buffers of the allocation-free coding
// variants (OrderInto, KendallEncodeAt, KendallDecodeAt,
// CompactEncodeAt). A zero Scratch is ready; buffers grow to the largest
// group seen and are reused afterwards. Not safe for concurrent use.
type Scratch struct {
	order []int
	pos   []int
	wins  []int
	seen  []bool
}

// grow resizes every buffer to n elements, reallocating only on growth.
func (s *Scratch) grow(n int) {
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.pos = make([]int, n)
		s.wins = make([]int, n)
		s.seen = make([]bool, n)
	}
	s.order = s.order[:n]
	s.pos = s.pos[:n]
	s.wins = s.wins[:n]
	s.seen = s.seen[:n]
}

// OrderInto is OrderOf into the scratch's order buffer; values is only
// read. The returned slice is valid until the next scratch-using call.
func (s *Scratch) OrderInto(values []float64) []int {
	s.grow(len(values))
	o := s.order
	for i := range o {
		o[i] = i
	}
	for i := 1; i < len(o); i++ {
		for j := i; j > 0; j-- {
			vi, vj := values[o[j]], values[o[j-1]]
			if vi > vj || (vi == vj && o[j] < o[j-1]) {
				o[j], o[j-1] = o[j-1], o[j]
			} else {
				break
			}
		}
	}
	return o
}

// KendallEncodeAt writes the Kendall coding of order o into dst starting
// at bit offset at, overwriting KendallBits(len(o)) bits. The caller
// guarantees o is a valid permutation (it skips OrderOf-style
// validation); output bits match KendallEncode exactly.
func (s *Scratch) KendallEncodeAt(dst bitvec.Vector, at int, o []int) {
	s.grow(len(o))
	pos := s.pos
	for p, label := range o {
		pos[label] = p
	}
	k := at
	for i := 0; i < len(o); i++ {
		for j := i + 1; j < len(o); j++ {
			dst.Set(k, pos[j] < pos[i])
			k++
		}
	}
}

// KendallDecodeAt reads KendallBits(n) bits of v starting at offset at
// and reconstructs the order, mirroring KendallDecode (including the
// transitivity and per-pair consistency checks). The returned slice is
// scratch-owned and valid until the next scratch-using call.
func (s *Scratch) KendallDecodeAt(v bitvec.Vector, at, n int) ([]int, error) {
	s.grow(n)
	wins, order, seen, pos := s.wins, s.order, s.seen, s.pos
	for i := range wins {
		wins[i] = 0
		seen[i] = false
	}
	k := at
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v.Get(k) {
				wins[j]++
			} else {
				wins[i]++
			}
			k++
		}
	}
	for label, w := range wins {
		p := n - 1 - w
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("perm: kendall coding %s is not transitive", v.Slice(at, at+KendallBits(n)))
		}
		seen[p] = true
		order[p] = label
	}
	// Verify every pair bit against the reconstructed order, the inline
	// equivalent of KendallEncode(order).Equal(v-slice).
	for p, label := range order {
		pos[label] = p
	}
	k = at
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v.Get(k) != (pos[j] < pos[i]) {
				return nil, fmt.Errorf("perm: kendall coding %s is inconsistent", v.Slice(at, at+KendallBits(n)))
			}
			k++
		}
	}
	return order, nil
}

// CompactEncodeAt writes the compact coding of order o into dst starting
// at bit offset at, overwriting CompactBits(len(o)) bits. The caller
// guarantees o is a valid permutation; output bits match CompactEncode.
func (s *Scratch) CompactEncodeAt(dst bitvec.Vector, at int, o []int) {
	n := len(o)
	if n > 20 {
		panic("perm: rank overflow beyond n=20")
	}
	var rank uint64
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if o[j] < o[i] {
				smaller++
			}
		}
		rank = rank*uint64(n-i) + uint64(smaller)
	}
	bits := CompactBits(n)
	for i := 0; i < bits; i++ {
		dst.Set(at+i, rank>>uint(bits-1-i)&1 == 1)
	}
}

// OrderOf returns the descending-frequency order of values: element 0 of
// the result is the index of the largest value. Ties break toward the
// lower index, mirroring a hardware comparator that must output
// something when counter values are equal (the paper's ∆f = 0 bias
// remark). It stays exported as the reference order of the groupbased
// tests; production code uses Scratch.OrderInto.
func OrderOf(values []float64) []int {
	n := len(values)
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	// Insertion sort keeps the tie-break deterministic and is fine for
	// the small group sizes in play.
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			vi, vj := values[o[j]], values[o[j-1]]
			if vi > vj || (vi == vj && o[j] < o[j-1]) {
				o[j], o[j-1] = o[j-1], o[j]
			} else {
				break
			}
		}
	}
	return o
}

// AllOrders enumerates every permutation of {0..n-1} in lexicographic
// order. Intended for the small n of Table I; panics beyond n = 10.
func AllOrders(n int) [][]int {
	if n > 10 {
		panic("perm: AllOrders beyond n=10")
	}
	total := 1
	for i := 2; i <= n; i++ {
		total *= i
	}
	out := make([][]int, 0, total)
	for r := uint64(0); r < uint64(total); r++ {
		out = append(out, Unrank(r, n))
	}
	return out
}
