package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/rng"
)

// The code-offset construction (Dodis et al., the paper's reference [2])
// is the canonical secure sketch: at enrollment the device draws a random
// codeword c and publishes w = response XOR c as helper data; at
// reconstruction it computes w XOR response', decodes the result back to
// c, and recovers the enrolled response as w XOR c. The helper word w is
// exactly the "ECC redundancy" block of the paper's figures 4 and 7 — and
// the object the attacks overwrite.

// Offset is the public helper data of a code-offset sketch together with
// the code it was generated for.
type Offset struct {
	// W is the published offset, length code.N().
	W bitvec.Vector
}

// EnrollOffset draws a uniformly random codeword using src and returns the
// helper offset for the given enrollment response. The response length
// must equal c.N().
func EnrollOffset(c Code, response bitvec.Vector, src *rng.Source) Offset {
	checkLen("response", response.Len(), c.N())
	msg := bitvec.New(c.K())
	for i := 0; i < c.K(); i++ {
		msg.Set(i, src.Bool())
	}
	return Offset{W: response.Xor(c.Encode(msg))}
}

// OffsetFor returns the helper offset that binds the given target response
// to the specific codeword encode(msg). Attacks use this to craft helper
// data for a hypothesized response.
func OffsetFor(c Code, response, msg bitvec.Vector) Offset {
	checkLen("response", response.Len(), c.N())
	return Offset{W: response.Xor(c.Encode(msg))}
}

// OffsetForInto is OffsetFor with caller-owned scratch: dst (length
// c.N()) receives the offset binding response to encode(msg). The attack
// layer calls this once per hypothesis arm, so the encode path must not
// allocate; output is bit-identical to OffsetFor.
func OffsetForInto(c Code, response, msg bitvec.Vector, ws *Workspace, dst bitvec.Vector) {
	checkLen("response", response.Len(), c.N())
	c.EncodeInto(ws, msg, dst)
	response.XorInto(dst, dst)
}

// Reproduce attempts to recover the enrolled response from a fresh noisy
// response reading. It returns the recovered response and ok=false when
// decoding fails (error count beyond the radius). corrected is the number
// of bit errors the decoder repaired.
func Reproduce(c Code, o Offset, response bitvec.Vector) (recovered bitvec.Vector, corrected int, ok bool) {
	var ws Workspace
	dst := bitvec.New(c.N())
	corrected, ok = ReproduceInto(c, o, response, &ws, dst)
	if !ok {
		return bitvec.Vector{}, corrected, false
	}
	return dst, corrected, true
}

// ConsistentWith reports whether candidate could be the enrolled response
// for offset o: w XOR candidate must be a codeword. This is the offline
// check an attacker runs on the two remaining key candidates of the
// sequential-pairing attack; it succeeds for both candidates exactly when
// the code contains the all-ones word.
func ConsistentWith(c Code, o Offset, candidate bitvec.Vector) bool {
	if candidate.Len() != c.N() || o.W.Len() != c.N() {
		return false
	}
	return IsCodeword(c, o.W.Xor(candidate))
}
