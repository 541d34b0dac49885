package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func TestRepetitionBasics(t *testing.T) {
	r := NewRepetition(3)
	if r.N() != 7 || r.K() != 1 || r.T() != 3 {
		t.Fatalf("params (%d,%d,%d)", r.N(), r.K(), r.T())
	}
	one := bitvec.MustFromString("1")
	zero := bitvec.MustFromString("0")
	if !encode(r, one).Equal(bitvec.Ones(7)) {
		t.Fatal("Encode(1) != ones")
	}
	if !encode(r, zero).IsZero() {
		t.Fatal("Encode(0) != zeros")
	}
	if !isCodeword(r, bitvec.Ones(7)) {
		t.Fatal("repetition code must contain all-ones")
	}
}

func TestRepetitionMajorityVote(t *testing.T) {
	r := NewRepetition(2) // n = 5
	cases := []struct {
		in        string
		wantBit   bool
		corrected int
	}{
		{"00000", false, 0},
		{"10000", false, 1},
		{"11000", false, 2},
		{"11100", true, 2},
		{"11110", true, 1},
		{"11111", true, 0},
	}
	for _, c := range cases {
		cw, corrected, ok := decode(r, bitvec.MustFromString(c.in))
		if !ok {
			t.Fatalf("%s: majority vote cannot fail", c.in)
		}
		if got := cw.Get(0); got != c.wantBit {
			t.Errorf("%s: bit %v, want %v", c.in, got, c.wantBit)
		}
		if corrected != c.corrected {
			t.Errorf("%s: corrected %d, want %d", c.in, corrected, c.corrected)
		}
	}
}

func TestRepetitionZeroT(t *testing.T) {
	r := NewRepetition(0) // (1,1) identity code
	cw := encode(r, bitvec.MustFromString("1"))
	if cw.Len() != 1 || !cw.Get(0) {
		t.Fatal("identity code broken")
	}
}

func TestBlockComposition(t *testing.T) {
	inner := MustBCH(BCHConfig{M: 4, T: 2})
	blk := &block{inner: inner, blocks: 3}
	if blk.N() != 45 || blk.K() != 21 || blk.T() != 2 {
		t.Fatalf("params (%d,%d,%d)", blk.N(), blk.K(), blk.T())
	}
	r := rng.New(7)
	msg := randMsg(r, blk.K())
	cw := encode(blk, msg)
	for b := 0; b < 3; b++ {
		if want := encode(inner, msg.Slice(b*7, (b+1)*7)); !cw.Slice(b*15, (b+1)*15).Equal(want) {
			t.Fatalf("block %d is not the inner encoding of its message slice", b)
		}
	}

	// t errors in each block: all correct.
	recv := cw.Clone()
	for b := 0; b < 3; b++ {
		recv.Flip(b*15 + 1)
		recv.Flip(b*15 + 7)
	}
	dec, corrected, ok := decode(blk, recv)
	if !ok || corrected != 6 || !dec.Equal(cw) {
		t.Fatalf("spread errors: ok=%v corrected=%d", ok, corrected)
	}

	// t+1 errors concentrated in one block: that block fails even though
	// the total (3) is below blocks*t (6).
	recv2 := cw.Clone()
	recv2.Flip(0)
	recv2.Flip(1)
	recv2.Flip(2)
	if dec2, _, ok := decode(blk, recv2); ok && dec2.Equal(cw) {
		// A miscorrection to a different codeword is possible; the
		// result must then differ from cw.
		t.Fatal("concentrated t+1 errors decoded to original codeword")
	}
}

// sketchOver returns a sketch sized for code over stream, holding it,
// and the offset a fresh enrollment of it draws from r.
func sketchOver(code Code, stream bitvec.Vector, r *rng.Source) (*Sketch, bitvec.Vector) {
	sk := new(Sketch)
	sk.Size(code, stream.Len())
	sk.Stream().PutAt(0, stream)
	return sk, sk.Enroll(r).Clone()
}

// reproduceFrom fills sk's stream with stream and reproduces from off.
func reproduceFrom(sk *Sketch, off, stream bitvec.Vector) (bitvec.Vector, int, bool) {
	sk.Stream().PutAt(0, stream)
	return sk.Reproduce(off)
}

// consistent is the attacks' offline check: off XOR the zero-padded
// candidate decodes to itself with zero corrections.
func consistent(sk *Sketch, off, candidate bitvec.Vector) bool {
	stream := sk.Stream()
	stream.PutAt(0, candidate)
	rec, corrected, ok := sk.Reproduce(off)
	return ok && corrected == 0 && rec.Equal(stream)
}

func TestOffsetRoundTrip(t *testing.T) {
	r := rng.New(11)
	for _, c := range []struct {
		code      Code
		streamLen int
	}{
		{NewRepetition(3), 7},
		{MustBCH(BCHConfig{M: 5, T: 3}), 31},
		{MustBCH(BCHConfig{M: 4, T: 2}), 30},
	} {
		resp := randMsg(r, c.streamLen)
		sk, off := sketchOver(c.code, resp, r)
		// Noiseless reproduction.
		got, corrected, ok := reproduceFrom(sk, off, resp)
		if !ok || corrected != 0 || !got.Equal(resp) {
			t.Fatalf("%s: noiseless reproduce failed", c.code)
		}
		// Up-to-t noise per block still reproduces.
		noisy := resp.Clone()
		noisy.Flip(0)
		got, corrected, ok = reproduceFrom(sk, off, noisy)
		if !ok || corrected != 1 || !got.Equal(resp) {
			t.Fatalf("%s: 1-error reproduce failed (ok=%v c=%d)", c.code, ok, corrected)
		}
	}
}

func TestOffsetFailsBeyondRadius(t *testing.T) {
	r := rng.New(13)
	code := MustBCH(BCHConfig{M: 5, T: 2})
	resp := randMsg(r, code.N())
	sk, off := sketchOver(code, resp, r)
	noisy := resp.Clone()
	flipRandom(r, noisy, code.T()+1)
	got, _, ok := reproduceFrom(sk, off, noisy)
	if ok && got.Equal(resp) {
		t.Fatal("reproduced original response from beyond-radius noise")
	}
}

func TestOffsetConsistency(t *testing.T) {
	r := rng.New(17)
	code := MustBCH(BCHConfig{M: 5, T: 2})
	resp := randMsg(r, code.N())
	sk, off := sketchOver(code, resp, r)
	if !consistent(sk, off, resp) {
		t.Fatal("true response must be consistent with its offset")
	}
	// The complement is consistent iff all-ones is a codeword: plain BCH
	// contains all-ones, so the complement IS consistent — this is the
	// documented complement ambiguity.
	if !consistent(sk, off, resp.Not()) {
		t.Fatal("plain BCH: complement should be consistent (all-ones codeword)")
	}
	// With the expurgated code the ambiguity disappears.
	ecode := MustBCH(BCHConfig{M: 5, T: 2, Expurgate: true})
	eresp := randMsg(r, ecode.N())
	esk, eoff := sketchOver(ecode, eresp, r)
	if !consistent(esk, eoff, eresp) {
		t.Fatal("expurgated: true response must be consistent")
	}
	if consistent(esk, eoff, eresp.Not()) {
		t.Fatal("expurgated: complement must NOT be consistent")
	}
}

// TestOffsetForBindsChosenResponse is the attacks' forging step: an
// offset drawn for a chosen (hypothesized) stream binds exactly that
// stream.
func TestOffsetForBindsChosenResponse(t *testing.T) {
	r := rng.New(19)
	code := MustBCH(BCHConfig{M: 4, T: 2})
	target := randMsg(r, code.N())
	sk, off := sketchOver(code, target, r)
	got, corrected, ok := reproduceFrom(sk, off, target)
	if !ok || corrected != 0 || !got.Equal(target) {
		t.Fatal("crafted offset does not bind target response")
	}
}

// TestConsistentWithLengthMismatch pins that a sketch refuses an offset
// that is not its padded length: callers check untrusted helper
// lengths first, so a mismatch reaching Reproduce is a programming
// error.
func TestConsistentWithLengthMismatch(t *testing.T) {
	var sk Sketch
	sk.Size(NewRepetition(1), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-bit offset for a 6-bit stream must panic")
		}
	}()
	sk.Reproduce(bitvec.New(3))
}

func TestBlockString(t *testing.T) {
	blk := &block{inner: NewRepetition(2), blocks: 4}
	if blk.String() != "4 x Rep(5,1,2)" {
		t.Fatalf("String = %q", blk.String())
	}
}
