package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// randomWord returns an n-bit vector with each bit set with probability
// roughly errRate-ish noise applied to a random codeword of c.
func noisyCodeword(t *testing.T, c Code, src *rng.Source, flips int) bitvec.Vector {
	t.Helper()
	msg := bitvec.New(c.K())
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, src.Bool())
	}
	w := c.Encode(msg)
	for f := 0; f < flips; f++ {
		w.Flip(src.Intn(w.Len()))
	}
	return w
}

// workspaceCodes is one instance of every code family and variant: the
// repetition code, Golay, plain, expurgated and shortened BCH (single-
// and multi-word lengths, so the byte tables cross word boundaries and
// end in a shortened tail), and Block over BCH and over Golay.
func workspaceCodes() []Code {
	return []Code{
		NewRepetition(3),
		NewGolay(),
		MustBCH(BCHConfig{M: 5, T: 3}),
		MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}),
		MustBCH(BCHConfig{M: 6, T: 4, Shorten: 5}),
		MustBCH(BCHConfig{M: 7, T: 5}),
		MustBCH(BCHConfig{M: 8, T: 4, Shorten: 3}),
		NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 3),
		NewBlock(NewGolay(), 2),
	}
}

// TestDecodeIntoMatchesDecode sweeps every code family across error
// weights from zero to beyond the radius and checks that the workspace
// decoder reproduces Decode bit-for-bit: same corrected count, same ok,
// same output word (received echoed on failure), with a SHARED workspace
// across calls so buffer-reuse bugs cannot hide.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	src := rng.New(2024)
	for _, c := range workspaceCodes() {
		var ws Workspace
		dst := bitvec.New(c.N())
		for flips := 0; flips <= c.T()+2; flips++ {
			for trial := 0; trial < 25; trial++ {
				w := noisyCodeword(t, c, src, flips)
				wantCW, wantCorr, wantOK := c.Decode(w)
				gotCorr, gotOK := c.DecodeInto(&ws, w, dst)
				if gotCorr != wantCorr || gotOK != wantOK {
					t.Fatalf("%s flips=%d: DecodeInto (%d,%v) != Decode (%d,%v)",
						c, flips, gotCorr, gotOK, wantCorr, wantOK)
				}
				// Decode's first return is the corrected word on ok and
				// the received word (per failed block, for Block) on
				// failure; DecodeInto must reproduce it either way.
				if !dst.Equal(wantCW) {
					t.Fatalf("%s flips=%d ok=%v: output words differ", c, flips, wantOK)
				}
			}
		}
	}
}

// TestReproduceIntoMatchesReproduce pins the code-offset scratch path.
func TestReproduceIntoMatchesReproduce(t *testing.T) {
	src := rng.New(77)
	c := NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 2)
	resp := bitvec.New(c.N())
	for i := 0; i < resp.Len(); i++ {
		resp.Set(i, src.Bool())
	}
	o := EnrollOffset(c, resp, src)
	var ws Workspace
	dst := bitvec.New(c.N())
	for flips := 0; flips <= c.T()+2; flips++ {
		noisy := resp.Clone()
		for f := 0; f < flips; f++ {
			noisy.Flip(src.Intn(noisy.Len()))
		}
		wantRec, wantCorr, wantOK := Reproduce(c, o, noisy)
		gotCorr, gotOK := ReproduceInto(c, o, noisy, &ws, dst)
		if gotCorr != wantCorr || gotOK != wantOK {
			t.Fatalf("flips=%d: ReproduceInto (%d,%v) != Reproduce (%d,%v)",
				flips, gotCorr, gotOK, wantCorr, wantOK)
		}
		if wantOK && !dst.Equal(wantRec) {
			t.Fatalf("flips=%d: recovered responses differ", flips)
		}
	}
}

// TestEncodeIntoMatchesEncode sweeps every code family over random
// messages and checks the workspace encoder against Encode bit-for-bit,
// with a SHARED workspace across calls so buffer-reuse bugs cannot hide.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	src := rng.New(4096)
	for _, c := range workspaceCodes() {
		var ws Workspace
		dst := bitvec.New(c.N())
		for trial := 0; trial < 50; trial++ {
			msg := bitvec.New(c.K())
			for i := 0; i < msg.Len(); i++ {
				msg.Set(i, src.Bool())
			}
			want := c.Encode(msg)
			c.EncodeInto(&ws, msg, dst)
			if !dst.Equal(want) {
				t.Fatalf("%s trial %d: EncodeInto differs from Encode", c, trial)
			}
		}
	}
}

// TestOffsetForIntoMatchesOffsetFor pins the attack layer's crafted
// offset fast path against the allocating original.
func TestOffsetForIntoMatchesOffsetFor(t *testing.T) {
	src := rng.New(88)
	c := NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 2)
	var ws Workspace
	dst := bitvec.New(c.N())
	for trial := 0; trial < 25; trial++ {
		resp := bitvec.New(c.N())
		for i := 0; i < resp.Len(); i++ {
			resp.Set(i, src.Bool())
		}
		msg := bitvec.New(c.K())
		for i := 0; i < msg.Len(); i++ {
			msg.Set(i, src.Bool())
		}
		want := OffsetFor(c, resp, msg)
		OffsetForInto(c, resp, msg, &ws, dst)
		if !dst.Equal(want.W) {
			t.Fatalf("trial %d: OffsetForInto differs from OffsetFor", trial)
		}
	}
}

// TestEncodeIntoSteadyStateAllocs pins the encode fast path's
// allocation-free steady state for every code family (the attack layer
// calls it once per hypothesis arm).
func TestEncodeIntoSteadyStateAllocs(t *testing.T) {
	src := rng.New(99)
	for _, c := range append(workspaceCodes(), NewBlock(MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}), 2)) {
		msg := bitvec.New(c.K())
		for i := 0; i < msg.Len(); i++ {
			msg.Set(i, src.Bool())
		}
		var ws Workspace
		dst := bitvec.New(c.N())
		c.EncodeInto(&ws, msg, dst) // grow the workspace
		if got := testing.AllocsPerRun(50, func() { c.EncodeInto(&ws, msg, dst) }); got > 0 {
			t.Fatalf("%s: EncodeInto allocates %.1f/op in steady state", c, got)
		}
	}
}
