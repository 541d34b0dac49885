// Package ecc implements the error-correcting codes and the code-offset
// helper-data construction (Sketch) used by every PUF key generator in
// this repository.
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
//   - the perfect (23, 12) Golay code.
//
// A Sketch splits a long response over several blocks of one of them.
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
// word: a Sketch's per-block decode memo keys its entries on the inner
// code's identity and the word's content alone.
type Code interface {
	// N returns the codeword length in bits.
	N() int
	// K returns the message length in bits.
	K() int
	// T returns the guaranteed error-correction radius.
	T() int
	// EncodeInto maps a K-bit message to an N-bit codeword, written
	// into a caller-owned dst using workspace scratch, with no
	// steady-state allocations. It panics if msg.Len() != K.
	EncodeInto(ws *Workspace, msg, dst bitvec.Vector)
	// DecodeInto corrects up to T errors in an N-bit received word,
	// writing into a caller-owned N-bit dst using workspace scratch. It
	// returns the number of bit errors it corrected, and ok=false when
	// the error pattern is detected to be uncorrectable; dst holds the
	// corrected codeword on ok and the received word on !ok. A decoder
	// may also miscorrect silently when the pattern exceeds T; both
	// outcomes count as key-reconstruction failure at the system level.
	DecodeInto(ws *Workspace, received, dst bitvec.Vector) (corrected int, ok bool)
	// String returns a short human-readable descriptor, e.g. "BCH(127,64,10)".
	String() string
}

// checkLen panics with a descriptive message on length mismatch; encoding
// and decoding length errors are programming errors, not runtime inputs.
func checkLen(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("ecc: %s length %d, want %d", what, got, want))
	}
}
