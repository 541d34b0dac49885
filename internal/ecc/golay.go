package ecc

import (
	"repro/internal/bitvec"
)

// Golay is the perfect binary Golay code (23, 12, 7), the other classic
// choice (next to BCH) in the fuzzy-extractor literature the paper
// references. Encoding and decoding go through the extended (24, 12, 8)
// code with the standard arithmetic decoding algorithm based on the
// 12x12 matrix B with B = Bᵀ and B·B = I (Lin & Costello's error
// trapping for the extended Golay): a received 23-bit word is extended
// with a parity bit chosen to make its total weight odd, which
// guarantees the 24-bit word is within distance 3 of a codeword whenever
// at most 3 channel errors occurred.
//
// Being perfect, the (23, 12) code decodes EVERY 23-bit word to some
// codeword — there are no decoding failures, only miscorrections beyond
// t = 3. That behavioural difference from bounded-distance BCH matters
// to the failure-rate oracle and is pinned by tests.
type Golay struct{}

// NewGolay returns the (23, 12, 7) Golay code.
func NewGolay() *Golay { return &Golay{} }

// golayB is the standard 12x12 matrix of the [I | B] generator of the
// extended Golay code, rows packed LSB-first in uint16.
var golayB = [12]uint16{
	// column index:   0..11, bit j of row i = B[i][j]
	0b111111111110, // 0 1 1 1 1 1 1 1 1 1 1 1
	0b010001110111, // 1 1 1 0 1 1 1 0 0 0 1 0
	0b101000111011, // 1 1 0 1 1 1 0 0 0 1 0 1
	0b110100011101, // 1 0 1 1 1 0 0 0 1 0 1 1
	0b011010001111, // 1 1 1 1 0 0 0 1 0 1 1 0
	0b101101000111, // 1 1 1 0 0 0 1 0 1 1 0 1
	0b110110100011, // 1 1 0 0 0 1 0 1 1 0 1 1
	0b111011010001, // 1 0 0 0 1 0 1 1 0 1 1 1
	0b011101101001, // 1 0 0 1 0 1 1 0 1 1 1 0
	0b001110110101, // 1 0 1 0 1 1 0 1 1 1 0 0
	0b000111011011, // 1 1 0 1 1 0 1 1 1 0 0 0
	0b100011101101, // 1 0 1 1 0 1 1 1 0 0 0 1
}

// bRow returns row i of B as a 12-bit mask.
func bRow(i int) uint16 { return golayB[i] }

// mulB returns v * B for a 12-bit row vector v.
func mulB(v uint16) uint16 {
	var out uint16
	for i := 0; i < 12; i++ {
		if v>>uint(i)&1 == 1 {
			out ^= golayB[i]
		}
	}
	return out
}

func weight12(v uint16) int {
	count := 0
	for v != 0 {
		v &= v - 1
		count++
	}
	return count
}

// N returns 23.
func (g *Golay) N() int { return 23 }

// K returns 12.
func (g *Golay) K() int { return 12 }

// T returns 3.
func (g *Golay) T() int { return 3 }

// encode24 maps a 12-bit message to the extended 24-bit codeword
// [msg | msg*B], both halves packed LSB-first.
func encode24(msg uint16) (left, right uint16) {
	return msg, mulB(msg)
}

// Encode produces the 23-bit codeword: the extended codeword with its
// LAST parity coordinate punctured.
func (g *Golay) Encode(msg bitvec.Vector) bitvec.Vector {
	checkLen("message", msg.Len(), 12)
	var m uint16
	for i := 0; i < 12; i++ {
		if msg.Get(i) {
			m |= 1 << uint(i)
		}
	}
	left, right := encode24(m)
	out := bitvec.New(23)
	for i := 0; i < 12; i++ {
		if left>>uint(i)&1 == 1 {
			out.Set(i, true)
		}
	}
	for i := 0; i < 11; i++ { // right bit 11 is punctured
		if right>>uint(i)&1 == 1 {
			out.Set(12+i, true)
		}
	}
	return out
}

// EncodeInto implements Code; the arithmetic runs in packed uint16
// halves, so ws may be nil.
func (g *Golay) EncodeInto(_ *Workspace, msg, dst bitvec.Vector) {
	checkLen("message", msg.Len(), 12)
	checkLen("encode buffer", dst.Len(), 23)
	var m uint16
	for i := 0; i < 12; i++ {
		if msg.Get(i) {
			m |= 1 << uint(i)
		}
	}
	left, right := encode24(m)
	dst.Zero()
	for i := 0; i < 12; i++ {
		if left>>uint(i)&1 == 1 {
			dst.Set(i, true)
		}
	}
	for i := 0; i < 11; i++ { // right bit 11 is punctured
		if right>>uint(i)&1 == 1 {
			dst.Set(12+i, true)
		}
	}
}

// decode24 finds the error pattern of an extended received word
// (left, right) with at most 3 errors. ok=false when no weight-<=3
// pattern exists (4 detected errors).
func decode24(left, right uint16) (eLeft, eRight uint16, ok bool) {
	// Syndrome s = left + right*B ... with G = [I | B] and H = [B | I]
	// (B symmetric, B*B = I): s = left*B + right? Use the standard
	// formulation: s = r_left * B^T + r_right = mulB(left) ^ right.
	s := mulB(left) ^ right
	if weight12(s) <= 3 {
		// Errors confined to the right half... wait: s = e_left*B +
		// e_right; if e_left = 0 then s = e_right.
		return 0, s, true
	}
	for i := 0; i < 12; i++ {
		if weight12(s^bRow(i)) <= 2 {
			// e_left = u_i, e_right = s + b_i.
			return 1 << uint(i), s ^ bRow(i), true
		}
	}
	sb := mulB(s)
	if weight12(sb) <= 3 {
		// e_left = s*B, e_right = 0.
		return sb, 0, true
	}
	for i := 0; i < 12; i++ {
		if weight12(sb^bRow(i)) <= 2 {
			return sb ^ bRow(i), 1 << uint(i), true
		}
	}
	return 0, 0, false
}

// Decode corrects up to 3 errors in a 23-bit word. As a perfect code it
// always returns a codeword; ok is always true. corrected counts the
// bit flips applied.
func (g *Golay) Decode(received bitvec.Vector) (bitvec.Vector, int, bool) {
	out := bitvec.New(23)
	corrected, ok := g.DecodeInto(nil, received, out)
	if !ok {
		return received, corrected, false
	}
	return out, corrected, true
}

// DecodeInto implements Code; the arithmetic decoder works in packed
// uint16 halves, so ws may be nil.
func (g *Golay) DecodeInto(_ *Workspace, received, dst bitvec.Vector) (int, bool) {
	checkLen("received word", received.Len(), 23)
	checkLen("decode buffer", dst.Len(), 23)
	var left, right uint16
	for i := 0; i < 12; i++ {
		if received.Get(i) {
			left |= 1 << uint(i)
		}
	}
	for i := 0; i < 11; i++ {
		if received.Get(12 + i) {
			right |= 1 << uint(i)
		}
	}
	// Try both values of the punctured coordinate; the parity trick
	// (choose the bit making total weight odd) finds the answer with
	// <= 3 channel errors, but trying both and keeping the lower
	// correction count also handles the boundary cleanly.
	best := -1
	var bestLeft, bestRight uint16
	for p := uint16(0); p <= 1; p++ {
		r := right | p<<11
		eL, eR, ok := decode24(left, r)
		if !ok {
			continue
		}
		// Count corrections on the 23 transmitted coordinates only.
		count := weight12(eL) + weight12(eR&0x7ff)
		if best == -1 || count < best {
			best = count
			bestLeft, bestRight = left^eL, r^eR
		}
	}
	if best == -1 || best > 3 {
		// Cannot happen for a perfect code, but keep the contract
		// honest.
		received.CopyInto(dst)
		return 0, false
	}
	dst.Zero()
	for i := 0; i < 12; i++ {
		if bestLeft>>uint(i)&1 == 1 {
			dst.Set(i, true)
		}
	}
	for i := 0; i < 11; i++ {
		if bestRight>>uint(i)&1 == 1 {
			dst.Set(12+i, true)
		}
	}
	return best, true
}

// Message extracts the systematic 12 message bits.
func (g *Golay) Message(codeword bitvec.Vector) bitvec.Vector {
	checkLen("codeword", codeword.Len(), 23)
	return codeword.Slice(0, 12)
}

// ContainsAllOnes reports true: the all-ones 23-tuple is a codeword of
// the perfect Golay code (its complement-closedness), so the §VI-A
// complement ambiguity applies to block-aligned Golay deployments.
func (g *Golay) ContainsAllOnes() bool {
	return IsCodeword(g, bitvec.Ones(23))
}

// String implements fmt.Stringer.
func (g *Golay) String() string { return "Golay(23,12,3)" }
