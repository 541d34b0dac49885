// Package ecc implements the error-correcting codes and the code-offset
// helper-data construction used by every PUF key generator in this
// repository.
//
// The paper under reproduction (Delvaux & Verbauwhede, DATE 2014) assumes
// each construction ends in "an ECC able to correct t errors per block"
// whose redundancy is public helper data. The attacks observe whether the
// error count at the ECC input exceeds t, so the code's exact behaviour at
// and beyond its correction radius matters. Three code families are
// provided:
//
//   - Repetition codes (the degenerate but instructive case),
//   - binary BCH codes (the standard choice in the PUF literature),
//     including shortened and expurgated variants, and
//   - Block composition, splitting long responses over several blocks.
//
// The expurgated variant exists for a reason specific to the paper: the
// final step of the sequential-pairing attack must distinguish a key K
// from its complement ¬K by "comparing the performance of two sets of ECC
// helper data". That only works when the all-ones word is NOT a codeword;
// narrow-sense BCH codes always contain it, expurgated ones never do.
package ecc

import (
	"fmt"

	"repro/internal/bitvec"
)

// Code is a binary block code with bounded-distance decoding.
//
// Implementations must be comparable with == (every code here is a
// pointer type), and DecodeInto must be a pure function of the received
// word: a Block's decode memo keys its entries on the inner code's
// identity and the word's content alone.
type Code interface {
	// N returns the codeword length in bits.
	N() int
	// K returns the message length in bits.
	K() int
	// T returns the guaranteed error-correction radius.
	T() int
	// Encode maps a K-bit message to an N-bit codeword.
	// It panics if msg.Len() != K.
	Encode(msg bitvec.Vector) bitvec.Vector
	// Decode corrects up to T errors in an N-bit received word. It
	// returns the corrected codeword, the number of bit errors it
	// corrected, and ok=false when the error pattern is detected to be
	// uncorrectable. A decoder may also miscorrect silently when the
	// pattern exceeds T; both outcomes count as key-reconstruction
	// failure at the system level.
	Decode(received bitvec.Vector) (codeword bitvec.Vector, corrected int, ok bool)
	// EncodeInto is Encode into a caller-owned N-bit dst using
	// workspace scratch: bit-identical output, no steady-state
	// allocations.
	EncodeInto(ws *Workspace, msg, dst bitvec.Vector)
	// DecodeInto is Decode into a caller-owned N-bit dst using
	// workspace scratch, with identical (corrected, ok). dst holds the
	// corrected codeword on ok and the received word on !ok (what
	// Decode returns as its first value either way).
	DecodeInto(ws *Workspace, received, dst bitvec.Vector) (corrected int, ok bool)
	// Message extracts the K message bits from a codeword.
	Message(codeword bitvec.Vector) bitvec.Vector
	// ContainsAllOnes reports whether the all-ones word is a codeword.
	// See the package comment for why attacks care.
	ContainsAllOnes() bool
	// String returns a short human-readable descriptor, e.g. "BCH(127,64,10)".
	String() string
}

// IsCodeword reports whether w decodes to itself with zero corrections.
func IsCodeword(c Code, w bitvec.Vector) bool {
	if w.Len() != c.N() {
		return false
	}
	cw, corrected, ok := c.Decode(w)
	return ok && corrected == 0 && cw.Equal(w)
}

// checkLen panics with a descriptive message on length mismatch; encoding
// and decoding length errors are programming errors, not runtime inputs.
func checkLen(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("ecc: %s length %d, want %d", what, got, want))
	}
}
