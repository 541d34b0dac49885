package ecc

import (
	"fmt"

	"repro/internal/bitvec"
)

// Repetition is the (n, 1) repetition code with n = 2t+1. Decoding is a
// majority vote. It is the simplest code satisfying the paper's "corrects
// t errors per block" abstraction and serves as a reference point in the
// ablation benches: its all-ones word IS a codeword, so the complement
// ambiguity of the sequential-pairing attack is unresolvable with it.
type Repetition struct {
	t int
}

// NewRepetition returns the (2t+1, 1) repetition code. It panics if t < 0.
// It stays exported for the integration tests' code-agnostic claim; no
// construction uses it.
func NewRepetition(t int) *Repetition {
	if t < 0 {
		panic("ecc: negative correction radius")
	}
	return &Repetition{t: t}
}

// N returns 2t+1.
func (r *Repetition) N() int { return 2*r.t + 1 }

// K returns 1.
func (r *Repetition) K() int { return 1 }

// T returns the correction radius t.
func (r *Repetition) T() int { return r.t }

// EncodeInto implements Code: it repeats the single message bit n
// times with word-level fills, so ws may be nil.
func (r *Repetition) EncodeInto(_ *Workspace, msg, dst bitvec.Vector) {
	checkLen("message", msg.Len(), 1)
	checkLen("encode buffer", dst.Len(), r.N())
	if msg.Get(0) {
		dst.SetAll()
	} else {
		dst.Zero()
	}
}

// DecodeInto implements Code with a majority vote. With n odd the vote
// never ties, so ok is always true; patterns beyond t miscorrect
// silently. The vote is word-parallel: Weight counts set bits a 64-bit
// word at a time through the hardware popcount, and the winning codeword
// is written with word-level fills. It needs no workspace scratch, so
// ws may be nil.
func (r *Repetition) DecodeInto(_ *Workspace, received, dst bitvec.Vector) (int, bool) {
	checkLen("received word", received.Len(), r.N())
	checkLen("decode buffer", dst.Len(), r.N())
	w := received.Weight()
	if w > r.t {
		dst.SetAll()
		return r.N() - w, true
	}
	dst.Zero()
	return w, true
}

// String implements fmt.Stringer.
func (r *Repetition) String() string {
	return fmt.Sprintf("Rep(%d,1,%d)", r.N(), r.t)
}
