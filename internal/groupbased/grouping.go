// Package groupbased implements the group-based RO PUF of Yin, Qu & Zhou
// (DATE 2013), the full pipeline of the paper's Fig. 4: entropy
// distillation, the grouping algorithm (Algorithm 2), Kendall coding, the
// error-correcting code, and entropy packing into the secret key.
//
// All three helper-data items — distiller coefficients, group
// assignments, ECC redundancy — live in public NVM, and the device
// performs only the sanity checks an honest implementation plausibly
// would (structural well-formedness). The paper's Section VI-C attack
// flows through exactly these interfaces.
package groupbased

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pairing"
)

// Grouping holds the partition of oscillators into groups: Assign[i] is
// the zero-based group id of oscillator i; every oscillator belongs to
// exactly one group.
type Grouping struct {
	Assign []int
}

// GroupLimited runs Algorithm 2 of the paper on a frequency (or
// residual) snapshot: walk oscillators in descending order; place each
// into the first group whose most recent member is more than
// thresholdMHz faster. The result maximizes sum log2(|Gj|!) greedily
// ("having few large groups is more beneficial than having many small
// groups"). maxSize caps the group size: the paper notes the
// Kendall-coding workload "increases quadratically with the group size
// |Gj|", so practical implementations bound it; a full group behaves like
// a threshold miss and the oscillator falls through to the next group.
// maxSize = len(f) is the uncapped algorithm.
func GroupLimited(f []float64, thresholdMHz float64, maxSize int) Grouping {
	if maxSize < 1 {
		panic(fmt.Sprintf("groupbased: max group size %d < 1", maxSize))
	}
	n := len(f)
	idx := pairing.DescendingOrder(f)

	assign := make([]int, n)
	// Per group, sized for the worst case of n singletons: the
	// frequency of the last member placed and the member count.
	lastFreq, count := make([]float64, 0, n), make([]int, 0, n)
	for _, ro := range idx {
		placed := false
		for g := range lastFreq {
			if count[g] < maxSize && lastFreq[g]-f[ro] > thresholdMHz {
				assign[ro] = g
				lastFreq[g] = f[ro]
				count[g]++
				placed = true
				break
			}
		}
		if !placed {
			assign[ro] = len(lastFreq)
			lastFreq = append(lastFreq, f[ro])
			count = append(count, 1)
		}
	}
	return Grouping{Assign: assign}
}

// NumGroups returns the group count.
func (g *Grouping) NumGroups() int {
	max := -1
	for _, a := range g.Assign {
		if a > max {
			max = a
		}
	}
	return max + 1
}

// Members returns the member lists of all groups; within each group the
// oscillators appear in ascending index order, which is the canonical
// label order used by the Kendall and compact codings.
func (g *Grouping) Members() [][]int {
	// Two passes over one shared backing array: count, carve slice
	// headers, fill in ascending RO order. Member lists come out
	// identical to per-group appends at three allocations total.
	num := g.NumGroups()
	counts := make([]int, num+1)
	for _, a := range g.Assign {
		counts[a+1]++
	}
	for i := 1; i <= num; i++ {
		counts[i] += counts[i-1]
	}
	backing := make([]int, len(g.Assign))
	out := make([][]int, num)
	for id := 0; id < num; id++ {
		out[id] = backing[counts[id]:counts[id]:counts[id+1]]
	}
	for ro, a := range g.Assign {
		out[a] = append(out[a], ro)
	}
	return out
}

// Validate applies the structural sanity checks an honest device can
// perform without enrollment-time frequencies: ids must form a contiguous
// range starting at zero and cover every oscillator. (A device cannot
// re-verify the pairwise threshold at reconstruction time — frequencies
// have drifted — which is precisely the opening the attack uses to
// repartition groups at will.)
func (g *Grouping) Validate(n int) error {
	if len(g.Assign) != n {
		return fmt.Errorf("groupbased: %d assignments for %d oscillators", len(g.Assign), n)
	}
	num := g.NumGroups()
	if num == 0 {
		return fmt.Errorf("groupbased: empty grouping")
	}
	seen := make([]bool, num)
	for ro, a := range g.Assign {
		if a < 0 || a >= num {
			return fmt.Errorf("groupbased: oscillator %d in invalid group %d", ro, a)
		}
		seen[a] = true
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("groupbased: group %d has no members", id)
		}
	}
	return nil
}

// Append appends the grouping's NVM encoding to dst and returns the
// extended slice: the oscillator count, then one uint16 group id per
// oscillator. Append(nil) allocates exactly once.
func (g *Grouping) Append(dst []byte) []byte {
	if need := len(dst) + 2 + 2*len(g.Assign); cap(dst) < need {
		// One allocation in every build (see bitvec.Vector.Append).
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(g.Assign)))
	for _, a := range g.Assign {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(a))
	}
	return dst
}

// UnmarshalGroupingInto parses Append's encoding into *dst, reusing its
// assignment storage when the capacity suffices. It accepts exactly the
// encodings Append produces. On error *dst is left unchanged.
func UnmarshalGroupingInto(dst *Grouping, data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("groupbased: grouping helper truncated")
	}
	n := int(binary.LittleEndian.Uint16(data))
	if len(data) != 2+2*n {
		return fmt.Errorf("groupbased: grouping helper length %d, want %d", len(data), 2+2*n)
	}
	if dst.Assign == nil || cap(dst.Assign) < n {
		dst.Assign = make([]int, n)
	}
	dst.Assign = dst.Assign[:n]
	for i := range dst.Assign {
		dst.Assign[i] = int(binary.LittleEndian.Uint16(data[2+2*i:]))
	}
	return nil
}
