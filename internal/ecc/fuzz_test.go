package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// FuzzDecode feeds every code of workspaceCodes a message and an error
// pattern. code picks the code; msg supplies the message bits (cycled,
// so any length works); each byte of flips toggles received bit
// flips[i] mod N, so short inputs give sparse patterns. Every pattern
// must decode without panicking, the same on a fresh workspace as on
// one that decoded the sent codeword first, and like the error pattern
// alone (checkErrorPatternOnly), beyond the radius too; a pattern of at
// most t errors in every block must decode to the sent codeword with
// exactly wt(e) corrections.
func FuzzDecode(f *testing.F) {
	codes := workspaceCodes()
	for i, c := range codes {
		n, t := c.N(), c.T()
		f.Add(uint8(i), []byte{0xa5, 0x3c}, []byte{})
		var spread, burst []byte
		for e := 0; e < t; e++ {
			spread = append(spread, byte(e*n/t))
		}
		for e := 0; e <= t; e++ {
			burst = append(burst, byte(e))
		}
		f.Add(uint8(i), []byte{0xff}, spread)
		f.Add(uint8(i), []byte{0x00, 0x01}, burst)
		f.Add(uint8(i), []byte{0x5a}, []byte{0, 7, 7, 13, 200, 255})
	}

	f.Fuzz(func(t *testing.T, code uint8, msg, flips []byte) {
		c := codes[int(code)%len(codes)]
		m := bitvec.New(c.K())
		if len(msg) > 0 {
			for i := 0; i < m.Len(); i++ {
				m.Set(i, msg[i/8%len(msg)]>>(i%8)&1 == 1)
			}
		}
		e := bitvec.New(c.N())
		for _, b := range flips {
			e.Flip(int(b) % c.N())
		}
		sent := encode(c, m)
		recv := sent.Xor(e)

		cw, corrected, ok := decode(c, recv)
		var ws Workspace
		dst := bitvec.New(c.N())
		c.DecodeInto(&ws, sent, dst)
		gotCorrected, gotOK := c.DecodeInto(&ws, recv, dst)
		if gotCorrected != corrected || gotOK != ok || !dst.Equal(cw) {
			t.Fatalf("%s: reused workspace (%d, %v) disagrees with a fresh one (%d, %v)", c, gotCorrected, gotOK, corrected, ok)
		}
		checkErrorPatternOnly(t, c, sent, e)

		if !withinRadius(c, e) {
			return
		}
		if !ok || corrected != e.Weight() || !dst.Equal(sent) {
			t.Fatalf("%s: %d correctable errors gave ok=%v corrected=%d, codeword recovered=%v",
				c, e.Weight(), ok, corrected, dst.Equal(sent))
		}
	})
}

// checkErrorPatternOnly checks that a decode depends on the error
// pattern alone: sent⊕e and e decode with the same (corrected, ok) and,
// when ok, to outputs that differ by exactly sent. Every code here is
// linear and decodes from syndromes; the attacks' arm builder forges its
// offsets over the zero codeword on this property.
func checkErrorPatternOnly(t *testing.T, c Code, sent, e bitvec.Vector) {
	t.Helper()
	cw, corrected, ok := decode(c, sent.Xor(e))
	ecw, eCorrected, eOK := decode(c, e)
	if corrected != eCorrected || ok != eOK {
		t.Fatalf("%s: sent⊕e decodes (%d, %v), e alone (%d, %v)", c, corrected, ok, eCorrected, eOK)
	}
	if ok && !cw.Equal(sent.Xor(ecw)) {
		t.Fatalf("%s: decoding sent⊕e does not give sent XOR the decoding of e", c)
	}
}

// TestDecodeDependsOnlyOnErrorPattern runs checkErrorPatternOnly over
// every code of workspaceCodes (BCH plain, expurgated and shortened,
// Golay, repetition, block composites) at error weights from zero to
// well beyond the radius, each with random codewords.
func TestDecodeDependsOnlyOnErrorPattern(t *testing.T) {
	src := rng.New(28)
	for _, c := range workspaceCodes() {
		for weight := 0; weight <= min(c.N(), 2*c.T()+3); weight++ {
			for trial := 0; trial < 25; trial++ {
				e := bitvec.New(c.N())
				flipRandom(src, e, weight)
				checkErrorPatternOnly(t, c, encode(c, randMsg(src, c.K())), e)
			}
		}
	}
}

// withinRadius reports whether the error pattern e puts at most t errors
// in every block of c (a code other than a block composite is one
// block).
func withinRadius(c Code, e bitvec.Vector) bool {
	n := c.N()
	if b, ok := c.(*block); ok {
		n = b.inner.N()
	}
	for at := 0; at < e.Len(); at += n {
		if e.Slice(at, at+n).Weight() > c.T() {
			return false
		}
	}
	return true
}
