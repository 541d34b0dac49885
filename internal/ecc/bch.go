package ecc

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/galois"
)

// BCH is a binary primitive BCH code of full length 2^m - 1, optionally
// expurgated (even-weight subcode) and/or shortened by s positions.
//
// Construction follows the textbook recipe: the generator polynomial is
// the least common multiple of the minimal polynomials of alpha^1 ..
// alpha^(2t) over GF(2); expurgation additionally multiplies in the
// minimal polynomial of alpha^0 = 1, i.e. (x + 1), unless it is already a
// factor. Decoding computes 2t syndromes, runs Berlekamp-Massey to find
// the error-locator polynomial and locates errors with a Chien search.
type BCH struct {
	field      *galois.Field
	fullN      int // 2^m - 1
	n, k, t    int // transmitted parameters (after shortening)
	shorten    int
	expurgated bool
	gen        galois.Poly   // generator over GF(2), coefficients 0/1
	genSupport []int         // indices of the generator's nonzero coefficients
	chienStep  []galois.Elem // chienStep[j] = alpha^(-j), j in [0, t]
	// oddSynd[i*t+r] = alpha^(i*(2r+1)): the per-bit contributions to
	// the odd syndromes S_1, S_3, .., S_(2t-1), precomputed so the
	// decoder's inner loop is a table XOR instead of exponent
	// arithmetic, with one bit's t entries adjacent. The even syndromes
	// are squares of lower ones. Nil when the table would be unreasonably
	// large (huge fields), falling back to Exp.
	oddSynd []galois.Elem
}

// BCHConfig selects a BCH code.
type BCHConfig struct {
	// M is the extension degree; the full code length is 2^M - 1.
	M int
	// T is the number of errors the code must correct.
	T int
	// Shorten removes this many leading message positions (default 0).
	Shorten int
	// Expurgate selects the even-weight subcode, which excludes the
	// all-ones word and loses one message bit.
	Expurgate bool
}

// NewBCH constructs the BCH code described by cfg. It returns an error if
// the parameters are inconsistent (t too large for the length, shortening
// beyond the message length, and so on).
func NewBCH(cfg BCHConfig) (*BCH, error) {
	if cfg.M < 3 || cfg.M > 16 {
		return nil, fmt.Errorf("ecc: BCH extension degree %d outside [3,16]", cfg.M)
	}
	if cfg.T < 1 {
		return nil, fmt.Errorf("ecc: BCH correction radius %d < 1", cfg.T)
	}
	f := galois.NewField(cfg.M)
	fullN := f.Order()
	if 2*cfg.T >= fullN {
		return nil, fmt.Errorf("ecc: BCH t=%d too large for length %d", cfg.T, fullN)
	}

	// Generator = lcm of minimal polynomials of alpha^1 .. alpha^(2t).
	// Conjugates share a minimal polynomial, so gather distinct cosets.
	gen := galois.Poly{1}
	seen := make(map[int]bool)
	include := func(i int) {
		coset := f.CyclotomicCoset(i)
		leader := coset[0]
		for _, c := range coset {
			if c < leader {
				leader = c
			}
		}
		if seen[leader] {
			return
		}
		seen[leader] = true
		gen = f.PolyMul(gen, bitsToPoly(f.MinimalPolynomial(i)))
	}
	for i := 1; i <= 2*cfg.T; i++ {
		include(i)
	}
	if cfg.Expurgate {
		include(0) // multiplies in (x + 1) unless already present
	}

	k := fullN - gen.Degree()
	if k <= 0 {
		return nil, fmt.Errorf("ecc: BCH m=%d t=%d has no message bits (deg g = %d)", cfg.M, cfg.T, gen.Degree())
	}
	if cfg.Shorten < 0 || cfg.Shorten >= k {
		return nil, fmt.Errorf("ecc: shortening %d outside [0,%d)", cfg.Shorten, k)
	}
	// Precompute the generator's support (EncodeInto reduces modulo g
	// with XORs over it) and the Chien-search step table alpha^(-j) for
	// every locator coefficient (the locator degree never exceeds t).
	support := make([]int, 0, len(gen))
	for i, c := range gen {
		if c != 0 {
			support = append(support, i)
		}
	}
	steps := make([]galois.Elem, cfg.T+1)
	for j := range steps {
		steps[j] = f.Exp(-j)
	}
	var oddSynd []galois.Elem
	if fullN*cfg.T <= 1<<20 {
		oddSynd = make([]galois.Elem, fullN*cfg.T)
		for i := 0; i < fullN; i++ {
			for r := 0; r < cfg.T; r++ {
				oddSynd[i*cfg.T+r] = f.Exp(i * (2*r + 1))
			}
		}
	}
	return &BCH{
		field:      f,
		fullN:      fullN,
		n:          fullN - cfg.Shorten,
		k:          k - cfg.Shorten,
		t:          cfg.T,
		shorten:    cfg.Shorten,
		expurgated: cfg.Expurgate,
		gen:        gen,
		genSupport: support,
		chienStep:  steps,
		oddSynd:    oddSynd,
	}, nil
}

// MustBCH is NewBCH for statically known-good parameters; it panics on error.
func MustBCH(cfg BCHConfig) *BCH {
	b, err := NewBCH(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// bitsToPoly converts a GF(2) polynomial packed in a uint64 into a Poly
// with 0/1 coefficients.
func bitsToPoly(bits uint64) galois.Poly {
	var p galois.Poly
	for i := 0; i < 64; i++ {
		if bits>>uint(i)&1 == 1 {
			for len(p) <= i {
				p = append(p, 0)
			}
			p[i] = 1
		}
	}
	return p
}

// N returns the transmitted codeword length (full length minus shortening).
func (b *BCH) N() int { return b.n }

// K returns the message length after shortening.
func (b *BCH) K() int { return b.k }

// T returns the design correction radius.
func (b *BCH) T() int { return b.t }

// Generator returns a copy of the generator polynomial (GF(2) coefficients).
func (b *BCH) Generator() galois.Poly { return b.gen.Clone() }

// Encode performs systematic encoding: the message occupies coefficient
// positions n-k..n-1 of the transmitted word and the parity, the remainder
// of x^(fullN-fullK) * u(x) modulo g(x), occupies positions 0..n-k-1.
func (b *BCH) Encode(msg bitvec.Vector) bitvec.Vector {
	checkLen("message", msg.Len(), b.k)
	parityLen := b.fullN - (b.k + b.shorten) // = deg g
	// Build x^(deg g) * u(x) over the full length; shortened positions
	// (the top b.shorten message slots) are implicitly zero.
	shifted := make(galois.Poly, b.fullN)
	for i := 0; i < b.k; i++ {
		if msg.Get(i) {
			shifted[parityLen+i] = 1
		}
	}
	_, rem := b.field.PolyDivMod(shifted, b.gen)
	out := bitvec.New(b.n)
	for i := 0; i < parityLen && i < len(rem); i++ {
		if rem[i] != 0 {
			out.Set(i, true)
		}
	}
	for i := 0; i < b.k; i++ {
		if msg.Get(i) {
			out.Set(parityLen+i, true)
		}
	}
	return out
}

// EncodeInto implements Code: systematic encoding into a caller-owned
// dst of length N with no steady-state allocations. The
// parity computation reduces x^(deg g) * u(x) modulo g in the workspace's
// polynomial buffer — GF(2) coefficients, so cancellation is an XOR over
// the generator's support. Output is bit-identical to Encode.
func (b *BCH) EncodeInto(ws *Workspace, msg, dst bitvec.Vector) {
	checkLen("message", msg.Len(), b.k)
	checkLen("encode buffer", dst.Len(), b.n)
	parityLen := b.fullN - (b.k + b.shorten) // = deg g
	buf := elems(ws.encBuf, b.fullN)
	ws.encBuf = buf
	for i := 0; i < b.k; i++ {
		if msg.Get(i) {
			buf[parityLen+i] = 1
		}
	}
	for d := b.fullN - 1; d >= parityLen; d-- {
		if buf[d] == 0 {
			continue
		}
		for _, j := range b.genSupport {
			buf[d-parityLen+j] ^= 1
		}
	}
	dst.Zero()
	for i := 0; i < parityLen; i++ {
		if buf[i] != 0 {
			dst.Set(i, true)
		}
	}
	for i := 0; i < b.k; i++ {
		if msg.Get(i) {
			dst.Set(parityLen+i, true)
		}
	}
}

// Message extracts the systematic message bits from a codeword.
func (b *BCH) Message(codeword bitvec.Vector) bitvec.Vector {
	checkLen("codeword", codeword.Len(), b.n)
	parityLen := b.fullN - (b.k + b.shorten)
	return codeword.Slice(parityLen, b.n)
}

// syndromesInto computes S_1..S_2t where S_j = r(alpha^j) into the
// caller's buffer, growing it only when too small. Only the odd
// syndromes are summed over the set bits — t table XORs per bit with
// the precomputed power table, Exp for fields too large to table. The
// received word is binary, so r(x)^2 = r(x^2) and every even syndrome
// is a square: S_2j = S_j^2.
func (b *BCH) syndromesInto(buf []galois.Elem, received bitvec.Vector) []galois.Elem {
	synd := elems(buf, 2*b.t)
	f := b.field
	for i := received.NextSet(0); i >= 0; i = received.NextSet(i + 1) {
		if b.oddSynd != nil {
			for r, v := range b.oddSynd[i*b.t : (i+1)*b.t] {
				synd[2*r] ^= v
			}
			continue
		}
		for j := 1; j < 2*b.t; j += 2 {
			synd[j-1] ^= f.Exp(i * j)
		}
	}
	for j := 2; j <= 2*b.t; j += 2 {
		s := synd[j/2-1]
		synd[j-1] = f.Mul(s, s)
	}
	return synd
}

// Decode corrects up to t errors. Failure (ok=false) is returned when the
// Berlekamp-Massey locator is inconsistent with the Chien-search root
// count, when an error lands in a shortened position, or when the
// corrected word still has nonzero syndromes. Expurgated codes also check
// overall parity, which detects one extra error.
func (b *BCH) Decode(received bitvec.Vector) (bitvec.Vector, int, bool) {
	var ws Workspace
	dst := bitvec.New(b.n)
	corrected, ok := b.DecodeInto(&ws, received, dst)
	if !ok {
		return received, corrected, false
	}
	return dst, corrected, true
}

// DecodeInto implements Code: Decode into a caller-owned dst of length
// N using workspace scratch, with no steady-state allocations.
func (b *BCH) DecodeInto(ws *Workspace, received, dst bitvec.Vector) (int, bool) {
	checkLen("received word", received.Len(), b.n)
	checkLen("decode buffer", dst.Len(), b.n)
	received.CopyInto(dst)
	synd := b.syndromesInto(ws.synd, received)
	ws.synd = synd
	allZero := true
	for _, s := range synd {
		if s != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		if b.expurgated && received.Weight()%2 != 0 {
			// Zero syndromes but odd parity: detected, uncorrectable
			// within the bounded-distance radius.
			return 0, false
		}
		return 0, true
	}

	lambda := b.berlekampMassey(ws, synd)
	degree := lambda.Degree()
	if degree < 1 || degree > b.t {
		return 0, false
	}

	// Chien search over the transmitted positions only: an error located
	// in a shortened (always-zero) position proves the pattern exceeded
	// the radius. The positions are distinct field elements alpha^(-i)
	// and a degree-d locator has at most d roots, so the search stops at
	// the d-th root; fewer is failure. The evaluation is
	// incremental: term j holds lambda_j * alpha^(-i*j), so stepping from
	// position i to i+1 is one multiply by the precomputed alpha^(-j) per
	// coefficient instead of a full Horner pass with Pow-style exponent
	// arithmetic.
	f := b.field
	terms := elems(ws.chien, len(lambda))
	ws.chien = terms
	copy(terms, lambda)
	positions := ws.positions[:0]
	for i := 0; i < b.fullN && len(positions) < degree; i++ {
		var sum galois.Elem
		for _, tm := range terms {
			sum ^= tm
		}
		if sum == 0 {
			positions = append(positions, i)
		}
		for j := 1; j < len(terms); j++ {
			terms[j] = f.Mul(terms[j], b.chienStep[j])
		}
	}
	ws.positions = positions
	if len(positions) != degree {
		return 0, false
	}
	for _, p := range positions {
		if p >= b.n {
			received.CopyInto(dst)
			return 0, false
		}
		dst.Flip(p)
	}
	// Re-verify: all syndromes of the corrected word must vanish. The
	// locator is consumed, so the syndrome buffer is safe to reuse.
	resynd := b.syndromesInto(ws.synd, dst)
	ws.synd = resynd
	for _, s := range resynd {
		if s != 0 {
			received.CopyInto(dst)
			return 0, false
		}
	}
	if b.expurgated && dst.Weight()%2 != 0 {
		received.CopyInto(dst)
		return 0, false
	}
	return degree, true
}

// berlekampMassey computes the error-locator polynomial from syndromes,
// rotating the workspace's three polynomial buffers instead of
// allocating per step. The returned locator aliases workspace memory and
// is only valid until the next decode.
func (b *BCH) berlekampMassey(ws *Workspace, synd []galois.Elem) galois.Poly {
	f := b.field
	c := onePoly(ws.bmC)
	prev := onePoly(ws.bmPrev)
	spare := ws.bmSpare
	var l int
	shift := 1
	prevDisc := galois.Elem(1)
	for i := 0; i < len(synd); i++ {
		// Discrepancy d = S_i + sum_{j=1..l} c_j * S_{i-j}.
		d := synd[i]
		for j := 1; j <= l && j < len(c); j++ {
			if i-j >= 0 {
				d = f.Add(d, f.Mul(c[j], synd[i-j]))
			}
		}
		if d == 0 {
			shift++
			continue
		}
		next := f.SubScaledShiftInto(spare, c, prev, f.Div(d, prevDisc), shift)
		if 2*l <= i {
			l = i + 1 - l
			spare, prev, c = prev, c, next
			prevDisc = d
			shift = 1
		} else {
			spare, c = c, next
			shift++
		}
	}
	ws.bmC, ws.bmPrev, ws.bmSpare = c, prev, spare
	return c
}

// ContainsAllOnes reports whether the all-ones transmitted word is a
// codeword. For the full-length narrow-sense code this is always true;
// expurgation removes it; shortening generally removes it as well. The
// check is performed directly on the transmitted-length word.
func (b *BCH) ContainsAllOnes() bool {
	return IsCodeword(b, bitvec.Ones(b.n))
}

// String implements fmt.Stringer.
func (b *BCH) String() string {
	tag := "BCH"
	if b.expurgated {
		tag = "eBCH"
	}
	if b.shorten > 0 {
		return fmt.Sprintf("%s(%d,%d,%d;s=%d)", tag, b.n, b.k, b.t, b.shorten)
	}
	return fmt.Sprintf("%s(%d,%d,%d)", tag, b.n, b.k, b.t)
}

// onePoly resets buf to the constant polynomial 1, reusing its backing
// array when possible.
func onePoly(buf galois.Poly) galois.Poly {
	if cap(buf) < 1 {
		buf = make(galois.Poly, 1)
	}
	buf = buf[:1]
	buf[0] = 1
	return buf
}
