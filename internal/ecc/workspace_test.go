package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// encode is EncodeInto into a fresh vector on a fresh Workspace.
func encode(c Code, msg bitvec.Vector) bitvec.Vector {
	var ws Workspace
	dst := bitvec.New(c.N())
	c.EncodeInto(&ws, msg, dst)
	return dst
}

// decode is DecodeInto into a fresh vector on a fresh Workspace: the
// corrected word on ok, the received word (per failed block, for a
// block composite) on !ok.
func decode(c Code, received bitvec.Vector) (bitvec.Vector, int, bool) {
	var ws Workspace
	dst := bitvec.New(c.N())
	corrected, ok := c.DecodeInto(&ws, received, dst)
	return dst, corrected, ok
}

// isCodeword reports whether w decodes to itself with zero corrections.
func isCodeword(c Code, w bitvec.Vector) bool {
	cw, corrected, ok := decode(c, w)
	return ok && corrected == 0 && cw.Equal(w)
}

// noisyCodeword returns a random codeword of c with flips random bit
// flips applied.
func noisyCodeword(t *testing.T, c Code, src *rng.Source, flips int) bitvec.Vector {
	t.Helper()
	msg := bitvec.New(c.K())
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, src.Bool())
	}
	w := encode(c, msg)
	for f := 0; f < flips; f++ {
		w.Flip(src.Intn(w.Len()))
	}
	return w
}

// workspaceCodes is one instance of every code family and variant: the
// repetition code, Golay, plain, expurgated and shortened BCH (single-
// and multi-word lengths, so the byte tables cross word boundaries and
// end in a shortened tail), and block composites over BCH and Golay.
func workspaceCodes() []Code {
	return []Code{
		NewRepetition(3),
		NewGolay(),
		MustBCH(BCHConfig{M: 5, T: 3}),
		MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}),
		MustBCH(BCHConfig{M: 6, T: 4, Shorten: 5}),
		MustBCH(BCHConfig{M: 7, T: 5}),
		MustBCH(BCHConfig{M: 8, T: 4, Shorten: 3}),
		&block{inner: MustBCH(BCHConfig{M: 5, T: 3}), blocks: 3},
		&block{inner: NewGolay(), blocks: 2},
	}
}

// TestDecodeIntoMatchesDecode sweeps every code family across error
// weights from zero to beyond the radius and checks that a workspace
// SHARED across calls decodes bit-for-bit like a fresh one per call:
// same corrected count, same ok, same output word (received echoed on
// failure), so buffer-reuse bugs cannot hide.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	src := rng.New(2024)
	for _, c := range workspaceCodes() {
		var ws Workspace
		dst := bitvec.New(c.N())
		for flips := 0; flips <= c.T()+2; flips++ {
			for trial := 0; trial < 25; trial++ {
				w := noisyCodeword(t, c, src, flips)
				wantCW, wantCorr, wantOK := decode(c, w)
				gotCorr, gotOK := c.DecodeInto(&ws, w, dst)
				if gotCorr != wantCorr || gotOK != wantOK {
					t.Fatalf("%s flips=%d: shared workspace (%d,%v) != fresh (%d,%v)",
						c, flips, gotCorr, gotOK, wantCorr, wantOK)
				}
				if !dst.Equal(wantCW) {
					t.Fatalf("%s flips=%d ok=%v: output words differ", c, flips, wantOK)
				}
			}
		}
	}
}

// TestReproduceIntoMatchesReproduce pins the sketch's reconstruction
// path: one sketch SHARED across calls, re-sized between two
// geometries, reproduces like a fresh sketch per call.
func TestReproduceIntoMatchesReproduce(t *testing.T) {
	src := rng.New(77)
	code := MustBCH(BCHConfig{M: 5, T: 3})
	var shared Sketch
	for _, streamLen := range []int{40, 93, 40, 62} {
		var enroll Sketch
		enroll.Size(code, streamLen)
		resp := randMsg(src, streamLen)
		enroll.Stream().PutAt(0, resp)
		off := enroll.Enroll(src).Clone()
		for flips := 0; flips <= code.T()+2; flips++ {
			noisy := resp.Clone()
			for f := 0; f < flips; f++ {
				noisy.Flip(src.Intn(noisy.Len()))
			}
			var fresh Sketch
			fresh.Size(code, streamLen)
			fresh.Stream().PutAt(0, noisy)
			wantRec, wantCorr, wantOK := fresh.Reproduce(off)
			shared.Size(code, streamLen)
			shared.Stream().PutAt(0, noisy)
			gotRec, gotCorr, gotOK := shared.Reproduce(off)
			if gotCorr != wantCorr || gotOK != wantOK {
				t.Fatalf("len=%d flips=%d: shared sketch (%d,%v) != fresh (%d,%v)",
					streamLen, flips, gotCorr, gotOK, wantCorr, wantOK)
			}
			if wantOK && !gotRec.Equal(wantRec) {
				t.Fatalf("len=%d flips=%d: recovered streams differ", streamLen, flips)
			}
		}
	}
}

// TestEncodeIntoMatchesEncode sweeps every code family over random
// messages and checks a workspace SHARED across calls against a fresh
// one per call, bit-for-bit, so buffer-reuse bugs cannot hide.
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
			want := encode(c, msg)
			c.EncodeInto(&ws, msg, dst)
			if !dst.Equal(want) {
				t.Fatalf("%s trial %d: shared workspace encodes differently", c, trial)
			}
		}
	}
}

// TestOffsetForIntoMatchesOffsetFor pins the offset Enroll draws, the
// computation enrollment and the attacks' forged helpers share: one
// sketch SHARED across calls and geometries must return, bit for bit,
// the padded stream XOR the block encoding of a message drawn one
// src.Bool() per message bit, computed on a fresh workspace.
func TestOffsetForIntoMatchesOffsetFor(t *testing.T) {
	src := rng.New(88)
	code := MustBCH(BCHConfig{M: 5, T: 3})
	var shared Sketch
	for trial := 0; trial < 25; trial++ {
		streamLen := []int{62, 31, 1, 100}[trial%4]
		resp := randMsg(src, streamLen)
		seed := uint64(trial) + 1000
		shared.Size(code, streamLen)
		shared.Stream().PutAt(0, resp)
		got := shared.Enroll(rng.New(seed))

		blk := &block{inner: code, blocks: max(1, (streamLen+code.N()-1)/code.N())}
		draw := rng.New(seed)
		msg := bitvec.New(blk.K())
		for i := 0; i < msg.Len(); i++ {
			msg.Set(i, draw.Bool())
		}
		padded := bitvec.New(blk.N())
		padded.PutAt(0, resp)
		if want := padded.Xor(encode(blk, msg)); !got.Equal(want) {
			t.Fatalf("trial %d (len %d): shared sketch's offset differs from the reference", trial, streamLen)
		}
	}
}

// TestEncodeIntoSteadyStateAllocs pins the encode fast path's
// allocation-free steady state for every code family (the attack layer
// calls it once per hypothesis arm).
func TestEncodeIntoSteadyStateAllocs(t *testing.T) {
	src := rng.New(99)
	for _, c := range append(workspaceCodes(), &block{inner: MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}), blocks: 2}) {
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
