package fuzzy

import (
	"errors"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/rng"
)

func randResp(seed uint64, n int) bitvec.Vector {
	r := rng.New(seed)
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, r.Bool())
	}
	return v
}

// reconstruct runs Reconstruct on a sketch holding the reading resp.
func reconstruct(resp bitvec.Vector, p Params, h Helper) (Key, error) {
	var sk ecc.Sketch
	sk.Size(p.Code, resp.Len())
	sk.Stream().PutAt(0, resp)
	return Reconstruct(&sk, p, h)
}

func params() Params {
	return Params{Code: ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})}
}

func TestRoundTripNoiseless(t *testing.T) {
	p := params()
	resp := randResp(1, 70)
	h, key, err := Enroll(resp, p, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := reconstruct(resp, p, h)
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("noiseless reconstruction mismatch")
	}
}

func TestRoundTripWithNoise(t *testing.T) {
	p := params()
	resp := randResp(3, 62) // two 31-bit blocks
	h, key, err := Enroll(resp, p, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	noisy := resp.Clone()
	noisy.Flip(0)
	noisy.Flip(40)
	noisy.Flip(41)
	got, err := reconstruct(noisy, p, h)
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("noisy reconstruction mismatch")
	}
}

func TestFailureBeyondRadius(t *testing.T) {
	p := params()
	resp := randResp(5, 31)
	h, key, err := Enroll(resp, p, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	noisy := resp.Clone()
	for i := 0; i < p.Code.T()+1; i++ {
		noisy.Flip(i)
	}
	got, err := reconstruct(noisy, p, h)
	if err == nil && got == key {
		t.Fatal("beyond-radius noise reconstructed the key")
	}
}

// TestManipulationIndependence is experiment E12 in miniature: shifting
// the helper by a fixed low-weight delta changes the derived key with
// probability independent of the secret response bits. Concretely, the
// reconstruction SUCCEEDS (decoding-wise) for every response when the
// delta is within the correction radius, and the derived key is always
// wrong — no failure-rate side channel remains.
func TestManipulationIndependence(t *testing.T) {
	p := params()
	for seed := uint64(0); seed < 20; seed++ {
		resp := randResp(seed, 31)
		h, key, err := Enroll(resp, p, rng.New(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		manip := Helper{W: h.W.Clone()}
		manip.W.Flip(3) // weight-1 delta, always within radius
		got, err := reconstruct(resp, p, manip)
		if err != nil {
			t.Fatalf("seed %d: in-radius manipulation failed decode: %v", seed, err)
		}
		if got == key {
			t.Fatalf("seed %d: manipulated helper still derived the key", seed)
		}
	}
}

func TestRobustVariantDetectsManipulation(t *testing.T) {
	p := Params{Code: ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}), Robust: true}
	resp := randResp(7, 31)
	h, key, err := Enroll(resp, p, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Tag) == 0 {
		t.Fatal("robust variant must store a tag")
	}
	// Honest reconstruction works.
	got, err := reconstruct(resp, p, h)
	if err != nil || got != key {
		t.Fatalf("honest robust reconstruction failed: %v", err)
	}
	// Any helper manipulation is detected.
	manip := Helper{W: h.W.Clone(), Tag: h.Tag}
	manip.W.Flip(0)
	if _, err := reconstruct(resp, p, manip); !errors.Is(err, ErrManipulationDetected) {
		t.Fatalf("err = %v, want ErrManipulationDetected", err)
	}
	// Tag manipulation likewise.
	manip2 := Helper{W: h.W, Tag: append([]byte(nil), h.Tag...)}
	manip2.Tag[0] ^= 1
	if _, err := reconstruct(resp, p, manip2); !errors.Is(err, ErrManipulationDetected) {
		t.Fatalf("err = %v, want ErrManipulationDetected", err)
	}
}

func TestHelperLengthMismatch(t *testing.T) {
	p := params()
	resp := randResp(9, 31)
	h, _, err := Enroll(resp, p, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reconstruct(randResp(11, 93), p, h); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestNilCode(t *testing.T) {
	if _, _, err := Enroll(bitvec.New(8), Params{}, rng.New(1)); err == nil {
		t.Fatal("nil code must fail enroll")
	}
	if _, err := Reconstruct(&ecc.Sketch{}, Params{}, Helper{}); err == nil {
		t.Fatal("nil code must fail reconstruct")
	}
}

func TestKeysDifferAcrossResponses(t *testing.T) {
	p := params()
	_, k1, err := Enroll(randResp(20, 31), p, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := Enroll(randResp(22, 31), p, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("different responses produced the same key")
	}
}

// TestReconstructAllocs pins the steady state of a device's
// reconstruction: Reproduce on a warm sketch, the commitment check and
// the key hash allocate nothing, plain and robust.
func TestReconstructAllocs(t *testing.T) {
	for _, robust := range []bool{false, true} {
		p := Params{Code: ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}), Robust: robust}
		resp := randResp(30, 127)
		h, key, err := Enroll(resp, p, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		var sk ecc.Sketch
		sk.Size(p.Code, resp.Len())
		run := func() {
			sk.Stream().PutAt(0, resp)
			if got, err := Reconstruct(&sk, p, h); err != nil || got != key {
				t.Fatalf("robust=%v: honest reconstruction failed: %v", robust, err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("robust=%v: Reconstruct allocates %.1f/op, want 0", robust, allocs)
		}
	}
}
