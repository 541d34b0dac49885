package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/galois"
	"repro/internal/rng"
)

func randMsg(r *rng.Source, k int) bitvec.Vector {
	m := bitvec.New(k)
	for i := 0; i < k; i++ {
		m.Set(i, r.Bool())
	}
	return m
}

// flipRandom flips exactly count distinct random positions of v in place.
func flipRandom(r *rng.Source, v bitvec.Vector, count int) {
	perm := make([]int, v.Len())
	r.Perm(perm)
	for i := 0; i < count; i++ {
		v.Flip(perm[i])
	}
}

// referenceEncode is the textbook systematic encoder, independent of the
// byte tables and the LFSR: the parity is the remainder of
// x^(deg g) * u(x) modulo g by polynomial long division over the field.
func referenceEncode(b *BCH, msg bitvec.Vector) bitvec.Vector {
	parityLen := b.n - b.k
	shifted := make(galois.Poly, b.fullN)
	for i := 0; i < b.k; i++ {
		shifted[parityLen+i] = galois.Elem(msg.Bit(i))
	}
	rem := polyMod(b.field, shifted, b.gen)
	out := bitvec.New(b.n)
	for i := 0; i < parityLen && i < len(rem); i++ {
		out.Set(i, rem[i] != 0)
	}
	for i := 0; i < b.k; i++ {
		out.Set(parityLen+i, msg.Get(i))
	}
	return out
}

// polyMod returns p mod q by polynomial long division over f. q must
// be nonzero.
func polyMod(f *galois.Field, p, q galois.Poly) galois.Poly {
	dq := q.Degree()
	rem := append(galois.Poly(nil), p...)
	for d := rem.Degree(); d >= dq; d = rem.Degree() {
		c := f.Div(rem[d], q[dq])
		for i := 0; i <= dq; i++ {
			rem[d-dq+i] = f.Add(rem[d-dq+i], f.Mul(c, q[i]))
		}
	}
	return rem[:dq]
}

// checkAgainstReference compares b's syndromes with direct evaluation
// r(alpha^j), j = 1..2t, on random received words, and EncodeInto with
// referenceEncode on random messages, sharing one workspace.
func checkAgainstReference(t *testing.T, b *BCH, r *rng.Source, trials int) {
	t.Helper()
	var ws Workspace
	dst := bitvec.New(b.n)
	for trial := 0; trial < trials; trial++ {
		recv := randMsg(r, b.n)
		poly := make(galois.Poly, b.n)
		for i := range poly {
			poly[i] = galois.Elem(recv.Bit(i))
		}
		synd := b.syndromesInto(ws.synd, recv)
		ws.synd = synd
		for j := 1; j <= 2*b.t; j++ {
			// r(alpha^j) by Horner's rule.
			var want galois.Elem
			for i := len(poly) - 1; i >= 0; i-- {
				want = b.field.Add(b.field.Mul(want, b.field.Exp(j)), poly[i])
			}
			if synd[j-1] != want {
				t.Fatalf("%s: S_%d = %d, want r(alpha^%d) = %d", b, j, synd[j-1], j, want)
			}
		}
		msg := randMsg(r, b.k)
		b.EncodeInto(&ws, msg, dst)
		if want := referenceEncode(b, msg); !dst.Equal(want) {
			t.Fatalf("%s: EncodeInto differs from the reference encoder", b)
		}
	}
}

// TestBCHTablesMatchReference pins the byte-table syndromes and parity
// against direct evaluation and long division across M = 3..8 and
// t = 1..4, plain, expurgated and shortened, including the multi-word
// lengths 127 and 255. The same codes with their tables dropped pin the
// bit-serial fallback (Exp per set bit, generator LFSR).
func TestBCHTablesMatchReference(t *testing.T) {
	r := rng.New(6)
	for m := 3; m <= 8; m++ {
		for tt := 1; tt <= 4; tt++ {
			for _, exp := range []bool{false, true} {
				for _, short := range []int{0, 1, 3} {
					b, err := NewBCH(BCHConfig{M: m, T: tt, Expurgate: exp, Shorten: short})
					if err != nil {
						continue // t too large, or shortening past k
					}
					if b.syndTab == nil || b.parTab == nil {
						t.Fatalf("%s: small code built no byte tables", b)
					}
					checkAgainstReference(t, b, r, 20)
					serial := *b
					serial.syndTab, serial.parTab = nil, nil
					checkAgainstReference(t, &serial, r, 5)
				}
			}
		}
	}
}

// TestBCHHugeFieldFallback pins a code past the table size bound: it
// must build no tables and still agree with the references and decode.
func TestBCHHugeFieldFallback(t *testing.T) {
	b := MustBCH(BCHConfig{M: 13, T: 5, Shorten: 7})
	if b.syndTab != nil || b.parTab != nil {
		t.Fatalf("%s: tabled past the size bound", b)
	}
	r := rng.New(7)
	checkAgainstReference(t, b, r, 2)
	cw := b.Encode(randMsg(r, b.K()))
	recv := cw.Clone()
	flipRandom(r, recv, b.T())
	if dec, corrected, ok := decode(b, recv); !ok || corrected != b.T() || !dec.Equal(cw) {
		t.Fatalf("%s: fallback decode of t errors failed", b)
	}
}

func TestBCHParameters(t *testing.T) {
	cases := []struct {
		cfg  BCHConfig
		n, k int
	}{
		{BCHConfig{M: 4, T: 1}, 15, 11},
		{BCHConfig{M: 4, T: 2}, 15, 7},
		{BCHConfig{M: 4, T: 3}, 15, 5},
		{BCHConfig{M: 5, T: 3}, 31, 16},
		{BCHConfig{M: 6, T: 2}, 63, 51},
		{BCHConfig{M: 7, T: 4}, 127, 99},
		{BCHConfig{M: 7, T: 10}, 127, 64},
		{BCHConfig{M: 8, T: 2}, 255, 239},
	}
	for _, c := range cases {
		b, err := NewBCH(c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if b.N() != c.n || b.K() != c.k {
			t.Errorf("%+v: got (%d,%d), want (%d,%d)", c.cfg, b.N(), b.K(), c.n, c.k)
		}
	}
}

func TestBCHInvalidConfigs(t *testing.T) {
	bad := []BCHConfig{
		{M: 2, T: 1},
		{M: 17, T: 1},
		{M: 4, T: 0},
		{M: 4, T: 8},              // 2t >= n
		{M: 4, T: 1, Shorten: 11}, // shorten >= k
		{M: 4, T: 1, Shorten: -1},
	}
	for _, cfg := range bad {
		if _, err := NewBCH(cfg); err == nil {
			t.Errorf("%+v: expected error", cfg)
		}
	}
}

func TestBCHEncodeProducesCodeword(t *testing.T) {
	r := rng.New(1)
	for _, cfg := range []BCHConfig{{M: 4, T: 2}, {M: 5, T: 3}, {M: 6, T: 4}, {M: 7, T: 5}} {
		b := MustBCH(cfg)
		for trial := 0; trial < 20; trial++ {
			msg := randMsg(r, b.K())
			cw := b.Encode(msg)
			if cw.Len() != b.N() {
				t.Fatalf("%s: codeword length %d", b, cw.Len())
			}
			if !isCodeword(b, cw) {
				t.Fatalf("%s: Encode output not a codeword", b)
			}
			if !cw.Slice(b.N()-b.K(), b.N()).Equal(msg) {
				t.Fatalf("%s: message not in the systematic positions", b)
			}
		}
	}
}

func TestBCHCorrectsUpToT(t *testing.T) {
	r := rng.New(2)
	for _, cfg := range []BCHConfig{{M: 4, T: 2}, {M: 5, T: 3}, {M: 6, T: 6}, {M: 7, T: 9}} {
		b := MustBCH(cfg)
		for e := 0; e <= b.T(); e++ {
			for trial := 0; trial < 10; trial++ {
				msg := randMsg(r, b.K())
				cw := b.Encode(msg)
				recv := cw.Clone()
				flipRandom(r, recv, e)
				dec, corrected, ok := decode(b, recv)
				if !ok {
					t.Fatalf("%s: decode failed at %d <= t errors", b, e)
				}
				if corrected != e {
					t.Fatalf("%s: corrected %d, want %d", b, corrected, e)
				}
				if !dec.Equal(cw) {
					t.Fatalf("%s: wrong codeword at %d errors", b, e)
				}
			}
		}
	}
}

func TestBCHBeyondTFailsOrMiscorrects(t *testing.T) {
	// Beyond the radius the decoder must not return the original
	// codeword while claiming success with <= t corrections of the
	// actual error positions; it either flags failure or miscorrects to
	// a DIFFERENT codeword. Either way the recovered word differs from
	// the transmitted one — which is the system-level failure the
	// attacks observe.
	r := rng.New(3)
	b := MustBCH(BCHConfig{M: 5, T: 2})
	misses := 0
	for trial := 0; trial < 200; trial++ {
		msg := randMsg(r, b.K())
		cw := b.Encode(msg)
		recv := cw.Clone()
		flipRandom(r, recv, b.T()+1)
		dec, _, ok := decode(b, recv)
		if ok && dec.Equal(cw) {
			misses++
		}
	}
	// t+1 errors can occasionally land back inside the radius of the
	// original word only if they don't (they can't: t+1 distinct flips
	// give distance t+1 > t). So a correct recovery is impossible.
	if misses != 0 {
		t.Fatalf("decoder recovered the original codeword from t+1 errors %d times", misses)
	}
}

func TestBCHShortened(t *testing.T) {
	r := rng.New(4)
	b := MustBCH(BCHConfig{M: 6, T: 3, Shorten: 20})
	if b.N() != 43 || b.K() != 63-18-20 {
		t.Fatalf("shortened params (%d,%d)", b.N(), b.K())
	}
	for e := 0; e <= b.T(); e++ {
		msg := randMsg(r, b.K())
		cw := b.Encode(msg)
		recv := cw.Clone()
		flipRandom(r, recv, e)
		dec, corrected, ok := decode(b, recv)
		if !ok || corrected != e || !dec.Equal(cw) {
			t.Fatalf("shortened decode failed at %d errors", e)
		}
		if !dec.Slice(b.N()-b.K(), b.N()).Equal(msg) {
			t.Fatal("shortened message extraction failed")
		}
	}
}

func TestBCHAllOnesMembership(t *testing.T) {
	// Narrow-sense full-length BCH contains the all-ones word.
	plain := MustBCH(BCHConfig{M: 5, T: 2})
	if !isCodeword(plain, bitvec.Ones(plain.N())) {
		t.Error("narrow-sense BCH should contain all-ones")
	}
	// The expurgated (even-weight) subcode cannot: n = 31 is odd.
	exp := MustBCH(BCHConfig{M: 5, T: 2, Expurgate: true})
	if isCodeword(exp, bitvec.Ones(exp.N())) {
		t.Error("expurgated BCH must not contain all-ones")
	}
	if exp.K() != plain.K()-1 {
		t.Errorf("expurgation should cost one message bit: %d vs %d", exp.K(), plain.K())
	}
}

func TestBCHExpurgatedParityDetection(t *testing.T) {
	// All codewords of the expurgated code have even weight.
	r := rng.New(5)
	b := MustBCH(BCHConfig{M: 5, T: 2, Expurgate: true})
	for trial := 0; trial < 50; trial++ {
		cw := b.Encode(randMsg(r, b.K()))
		if cw.Weight()%2 != 0 {
			t.Fatalf("expurgated codeword has odd weight %d", cw.Weight())
		}
	}
	// Still corrects t errors.
	for e := 0; e <= b.T(); e++ {
		cw := b.Encode(randMsg(r, b.K()))
		recv := cw.Clone()
		flipRandom(r, recv, e)
		dec, _, ok := decode(b, recv)
		if !ok || !dec.Equal(cw) {
			t.Fatalf("expurgated decode failed at %d errors", e)
		}
	}
}

func TestBCHZeroWordIsCodeword(t *testing.T) {
	for _, cfg := range []BCHConfig{{M: 4, T: 2}, {M: 5, T: 2, Expurgate: true}, {M: 6, T: 3, Shorten: 10}} {
		b := MustBCH(cfg)
		if !isCodeword(b, bitvec.New(b.N())) {
			t.Errorf("%s: zero word not a codeword", b)
		}
	}
}

func TestBCHLinearityProperty(t *testing.T) {
	b := MustBCH(BCHConfig{M: 5, T: 3})
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m1, m2 := randMsg(r, b.K()), randMsg(r, b.K())
		return b.Encode(m1).Xor(b.Encode(m2)).Equal(b.Encode(m1.Xor(m2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBCHDecodeRoundTripProperty(t *testing.T) {
	b := MustBCH(BCHConfig{M: 6, T: 4})
	f := func(seed uint64, eRaw uint8) bool {
		r := rng.New(seed)
		e := int(eRaw) % (b.T() + 1)
		cw := b.Encode(randMsg(r, b.K()))
		recv := cw.Clone()
		flipRandom(r, recv, e)
		dec, corrected, ok := decode(b, recv)
		return ok && corrected == e && dec.Equal(cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBCHMinimumDistance(t *testing.T) {
	// Exhaustively verify d >= 2t+1 for the small BCH(15,5,3) code by
	// enumerating all 32 codewords.
	b := MustBCH(BCHConfig{M: 4, T: 3})
	var words []bitvec.Vector
	for m := 0; m < 1<<b.K(); m++ {
		msg := bitvec.New(b.K())
		for i := 0; i < b.K(); i++ {
			if m>>uint(i)&1 == 1 {
				msg.Set(i, true)
			}
		}
		words = append(words, b.Encode(msg))
	}
	minD := b.N() + 1
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			if d := words[i].HammingDistance(words[j]); d < minD {
				minD = d
			}
		}
	}
	if minD < 2*b.T()+1 {
		t.Fatalf("minimum distance %d < %d", minD, 2*b.T()+1)
	}
}

func BenchmarkBCHEncode127(b *testing.B) {
	code := MustBCH(BCHConfig{M: 7, T: 10})
	msg := randMsg(rng.New(1), code.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = code.Encode(msg)
	}
}

func BenchmarkBCHDecode127(b *testing.B) {
	code := MustBCH(BCHConfig{M: 7, T: 10})
	r := rng.New(1)
	cw := code.Encode(randMsg(r, code.K()))
	recv := cw.Clone()
	flipRandom(r, recv, code.T())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = decode(code, recv)
	}
}
