package ecc

import (
	"fmt"
	"sync"

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
//
// The odd syndromes and the systematic parity are GF(2)-linear in the
// input bits, so both are computed a byte at a time (Lin & Costello,
// Error Control Coding, ch. 6): each is the XOR of one precomputed table
// row per nonzero input byte, indexed by (byte position, byte value) and
// read from the vector's packed words. The tables are built once per code
// and shared read-only by every Workspace. Fields too large to table
// fall back to bit-serial loops: Exp per set bit for the syndromes and a
// generator LFSR for the parity.
type BCH struct {
	field      *galois.Field
	fullN      int // 2^m - 1
	n, k, t    int // transmitted parameters (after shortening)
	shorten    int
	expurgated bool
	gen        galois.Poly // generator over GF(2), coefficients 0/1
	// genLow packs g(x) - x^(deg g), the LFSR feedback taps: x^(deg g)
	// is congruent to it modulo g. Its word count is the parity's.
	genLow []uint64
	// syndTab[(p*256+v)*t+r] is the odd syndrome S_(2r+1) of the word
	// whose only nonzero byte is v at byte p: one row of t elements per
	// (position, value), so a received byte costs t XORs. The even
	// syndromes are squares of lower ones.
	syndTab []galois.Elem
	// parTab[(q*256+v)*pw:][:pw] packs the parity of the message whose
	// only nonzero byte is v at byte q: the remainder of
	// x^(deg g) * v(x) * x^(8q) modulo g, pw = len(genLow) words.
	// Both tables are nil for fields too large to table.
	parTab []uint64
}

// maxTableBytes bounds the byte tables of one code (4 MiB); larger
// codes use the bit-serial fallbacks. Every code this repository
// instantiates needs a few KiB.
const maxTableBytes = 4 << 20

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

// bchCache interns one *BCH per BCHConfig, as galois interns one Field
// per degree: every device and attack of one configuration shares the
// generator and byte tables instead of rebuilding them.
var bchCache sync.Map // BCHConfig -> *BCH

// NewBCH returns the BCH code described by cfg. It returns an error if
// the parameters are inconsistent (t too large for the length,
// shortening beyond the message length, and so on).
//
// A *BCH is immutable: its fields are written only while NewBCH builds
// it, and every piece of mutable decoder state lives in the caller's
// Workspace. So NewBCH builds each configuration once per process and
// returns the same shared instance afterwards, safe for concurrent use
// by any number of goroutines (each with its own Workspace). Only
// successful constructions are cached; an invalid cfg is rejected
// again on every call.
func NewBCH(cfg BCHConfig) (*BCH, error) {
	if b, ok := bchCache.Load(cfg); ok {
		return b.(*BCH), nil
	}
	b, err := newBCH(cfg)
	if err != nil {
		return nil, err
	}
	actual, _ := bchCache.LoadOrStore(cfg, b)
	return actual.(*BCH), nil
}

// newBCH constructs the code NewBCH interns.
func newBCH(cfg BCHConfig) (*BCH, error) {
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
	// Pack the generator's feedback taps.
	parityLen := gen.Degree()
	genLow := make([]uint64, (parityLen+63)/64)
	for i, c := range gen[:parityLen] {
		if c != 0 {
			genLow[i>>6] |= 1 << uint(i&63)
		}
	}
	b := &BCH{
		field:      f,
		fullN:      fullN,
		n:          fullN - cfg.Shorten,
		k:          k - cfg.Shorten,
		t:          cfg.T,
		shorten:    cfg.Shorten,
		expurgated: cfg.Expurgate,
		gen:        gen,
		genLow:     genLow,
	}
	// One row per (byte position, byte value); elements are 4 bytes,
	// parity words 8.
	synRows, parRows := (b.n+7)/8*256, (b.k+7)/8*256
	if 4*synRows*b.t+8*parRows*len(genLow) <= maxTableBytes {
		b.buildTables()
	}
	return b, nil
}

// buildTables fills syndTab and parTab. The single-bit rows are direct:
// alpha^(i*(2r+1)) for codeword position i, and x^(deg g + i) mod g for
// message bit i, stepped by the generator LFSR. Every other row is
// derived incrementally by fillByteTable.
func (b *BCH) buildTables() {
	t, pw := b.t, len(b.genLow)
	b.syndTab = make([]galois.Elem, (b.n+7)/8*256*t)
	for p := 0; p*8 < b.n; p++ {
		tab := b.syndTab[p*256*t : (p+1)*256*t]
		for bit := 0; bit < 8; bit++ {
			for r := 0; r < t; r++ {
				tab[(1<<bit)*t+r] = b.field.Exp((8*p + bit) * (2*r + 1))
			}
		}
		fillByteTable(tab, t)
	}
	b.parTab = make([]uint64, (b.k+7)/8*256*pw)
	rem := make([]uint64, pw)
	b.shiftIn(rem, 1) // x^(deg g) mod g
	for q := 0; q*8 < b.k; q++ {
		tab := b.parTab[q*256*pw : (q+1)*256*pw]
		for bit := 0; bit < 8; bit++ {
			copy(tab[(1<<bit)*pw:], rem)
			b.shiftIn(rem, 0)
		}
		fillByteTable(tab, pw)
	}
}

// fillByteTable completes a 256-row table of width-w rows whose
// single-bit rows are set: row v is row (v without its lowest set bit)
// XOR row (lowest set bit of v), one XOR pass per row.
func fillByteTable[E galois.Elem | uint64](tab []E, w int) {
	for v := 3; v < 256; v++ {
		low := v & -v
		if low == v {
			continue
		}
		row, rest, bit := tab[v*w:(v+1)*w], tab[(v^low)*w:], tab[low*w:]
		for i := range row {
			row[i] = rest[i] ^ bit[i]
		}
	}
}

// shiftIn advances the generator LFSR one step: r <- x*r + in*x^(deg g)
// modulo g, on deg g bits packed in len(genLow) words.
func (b *BCH) shiftIn(r []uint64, in uint64) {
	deg := b.n - b.k
	fb := r[(deg-1)>>6]>>uint((deg-1)&63)&1 ^ in
	for w := len(r) - 1; w > 0; w-- {
		r[w] = r[w]<<1 | r[w-1]>>63
	}
	r[0] <<= 1
	if deg&63 != 0 {
		r[len(r)-1] &= 1<<uint(deg&63) - 1
	}
	if fb != 0 {
		for w, g := range b.genLow {
			r[w] ^= g
		}
	}
}

// MustBCH is NewBCH for statically known-good parameters; it panics on
// error. Like NewBCH it returns the shared instance for cfg.
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
// It is EncodeInto with a fresh Workspace.
func (b *BCH) Encode(msg bitvec.Vector) bitvec.Vector {
	var ws Workspace
	dst := bitvec.New(b.n)
	b.EncodeInto(&ws, msg, dst)
	return dst
}

// EncodeInto implements Code: systematic encoding into a caller-owned
// dst of length N with no steady-state allocations. The parity is the
// XOR of one parTab row per nonzero message byte, accumulated in the
// workspace's parity words and stored into dst a word at a time; the
// message follows it with one word-level PutAt. Untabled fields clock
// the message through the generator LFSR bit by bit instead.
func (b *BCH) EncodeInto(ws *Workspace, msg, dst bitvec.Vector) {
	checkLen("message", msg.Len(), b.k)
	checkLen("encode buffer", dst.Len(), b.n)
	pw := len(b.genLow)
	par := zeroed(ws.parity, pw)
	ws.parity = par
	if b.parTab != nil {
		for w := 0; w*64 < b.k; w++ {
			word := msg.Word(w)
			for q := 8 * w; word != 0; q, word = q+1, word>>8 {
				if v := int(word & 0xff); v != 0 {
					for i, x := range b.parTab[(q*256+v)*pw : (q*256+v+1)*pw] {
						par[i] ^= x
					}
				}
			}
		}
	} else {
		for i := b.k - 1; i >= 0; i-- {
			b.shiftIn(par, uint64(msg.Bit(i)))
		}
	}
	for i, x := range par {
		dst.SetWord(i, x)
	}
	dst.PutAt(b.n-b.k, msg)
}

// Message extracts the systematic message bits from a codeword.
func (b *BCH) Message(codeword bitvec.Vector) bitvec.Vector {
	checkLen("codeword", codeword.Len(), b.n)
	parityLen := b.fullN - (b.k + b.shorten)
	return codeword.Slice(parityLen, b.n)
}

// syndromesInto computes S_1..S_2t where S_j = r(alpha^j) into the
// caller's buffer, growing it only when too small. The odd syndromes
// are the XOR of one syndTab row per nonzero received byte, read from
// the packed words (Exp per set bit for fields too large to table). The
// received word is binary, so r(x)^2 = r(x^2) and every even syndrome
// is a square: S_2j = S_j^2.
func (b *BCH) syndromesInto(buf []galois.Elem, received bitvec.Vector) []galois.Elem {
	synd := zeroed(buf, 2*b.t)
	f := b.field
	if b.syndTab != nil {
		t := b.t
		for w := 0; w*64 < b.n; w++ {
			word := received.Word(w)
			for p := 8 * w; word != 0; p, word = p+1, word>>8 {
				if v := int(word & 0xff); v != 0 {
					for r, s := range b.syndTab[(p*256+v)*t : (p*256+v+1)*t] {
						synd[2*r] ^= s
					}
				}
			}
		}
	} else {
		for i := received.NextSet(0); i >= 0; i = received.NextSet(i + 1) {
			for j := 1; j < 2*b.t; j += 2 {
				synd[j-1] ^= f.Exp(i * j)
			}
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
	// the d-th root; fewer is failure. The evaluation is incremental and
	// runs in the log domain: for each nonzero coefficient lambda_j the
	// workspace holds the pair (log lambda_j - i*j mod 2^m-1, j), so
	// stepping from position i to i+1 is one subtraction per term and
	// the sum one antilog per term. lambda_0 = 1 throughout.
	f, order := b.field, galois.Elem(b.fullN)
	terms := ws.chien[:0]
	for j := 1; j < len(lambda); j++ {
		if lambda[j] != 0 {
			terms = append(terms, galois.Elem(f.Log(lambda[j])), galois.Elem(j))
		}
	}
	ws.chien = terms
	positions := ws.positions[:0]
	for i := 0; i < b.fullN && len(positions) < degree; i++ {
		sum := lambda[0]
		for a := 0; a+1 < len(terms); a += 2 {
			lg, j := terms[a], terms[a+1]
			sum ^= f.Exp(int(lg))
			if lg < j {
				lg += order
			}
			terms[a] = lg - j
		}
		if sum == 0 {
			positions = append(positions, i)
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
