package ecc

import (
	"testing"

	"repro/internal/bitvec"
)

// FuzzDecode feeds every code of workspaceCodes a message and an error
// pattern. code picks the code; msg supplies the message bits (cycled,
// so any length works); each byte of flips toggles received bit
// flips[i] mod N, so short inputs give sparse patterns. Every pattern
// must decode without panicking and DecodeInto must agree with Decode;
// a pattern of at most t errors in every block must decode to the sent
// codeword with exactly wt(e) corrections.
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
		sent := c.Encode(m)
		recv := sent.Xor(e)

		cw, corrected, ok := c.Decode(recv)
		var ws Workspace
		dst := bitvec.New(c.N())
		gotCorrected, gotOK := c.DecodeInto(&ws, recv, dst)
		if gotCorrected != corrected || gotOK != ok || !dst.Equal(cw) {
			t.Fatalf("%s: DecodeInto (%d, %v) disagrees with Decode (%d, %v)", c, gotCorrected, gotOK, corrected, ok)
		}

		if !withinRadius(c, e) {
			return
		}
		if !ok || corrected != e.Weight() || !dst.Equal(sent) {
			t.Fatalf("%s: %d correctable errors gave ok=%v corrected=%d, codeword recovered=%v",
				c, e.Weight(), ok, corrected, dst.Equal(sent))
		}
	})
}

// withinRadius reports whether the error pattern e puts at most t errors
// in every block of c (a non-Block code is one block).
func withinRadius(c Code, e bitvec.Vector) bool {
	n := c.N()
	if b, ok := c.(*Block); ok {
		n = b.Inner().N()
	}
	for at := 0; at < e.Len(); at += n {
		if e.Slice(at, at+n).Weight() > c.T() {
			return false
		}
	}
	return true
}
