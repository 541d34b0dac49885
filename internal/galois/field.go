// Package galois implements arithmetic in binary extension fields GF(2^m)
// and polynomials over them.
//
// It exists to support the binary BCH error-correcting codes in
// internal/ecc: the generator polynomial of a BCH code is built from
// minimal polynomials of powers of a primitive element alpha, and decoding
// evaluates syndromes, runs Berlekamp-Massey over GF(2^m) and locates
// error positions with a Chien search. No ready-made Go library provides
// this, so the repository carries its own implementation.
//
// Fields are represented with log/antilog tables over a fixed primitive
// polynomial per extension degree m in [2, 16].
package galois

import (
	"fmt"
	"sync"
)

// primitivePolys[m] is a primitive polynomial of degree m over GF(2),
// encoded with bit i representing x^i. These are the standard minimal-
// weight primitive polynomials used throughout the coding literature.
var primitivePolys = map[int]uint32{
	2:  0x7,     // x^2 + x + 1
	3:  0xb,     // x^3 + x + 1
	4:  0x13,    // x^4 + x + 1
	5:  0x25,    // x^5 + x^2 + 1
	6:  0x43,    // x^6 + x + 1
	7:  0x89,    // x^7 + x^3 + 1
	8:  0x11d,   // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,   // x^9 + x^4 + 1
	10: 0x409,   // x^10 + x^3 + 1
	11: 0x805,   // x^11 + x^2 + 1
	12: 0x1053,  // x^12 + x^6 + x^4 + x + 1
	13: 0x201b,  // x^13 + x^4 + x^3 + x + 1
	14: 0x4443,  // x^14 + x^10 + x^6 + x + 1
	15: 0x8003,  // x^15 + x + 1
	16: 0x1100b, // x^16 + x^12 + x^3 + x + 1
}

// Elem is an element of GF(2^m), stored as its polynomial representation.
type Elem uint32

// Field is GF(2^m) with precomputed log and antilog tables.
type Field struct {
	m    int
	n    int // 2^m - 1, the multiplicative group order
	poly uint32
	exp  []Elem // exp[i] = alpha^i, for i in [0, 2n); doubled to skip mod
	log  []int  // log[x] = i such that alpha^i = x, for x in [1, 2^m)
}

// fieldCache interns one Field per extension degree. A Field is
// immutable after construction (its tables are only ever read), and
// experiment populations construct the same BCH codes once per device,
// so rebuilding the log/antilog tables each time is pure waste.
var fieldCache sync.Map // m -> *Field

// NewField returns GF(2^m), constructing it on first use and returning
// the shared immutable instance afterwards. It panics if m is outside
// [2, 16], which is a programming error rather than a runtime condition:
// field sizes are fixed at code-construction time.
func NewField(m int) *Field {
	if f, ok := fieldCache.Load(m); ok {
		return f.(*Field)
	}
	f := newField(m)
	actual, _ := fieldCache.LoadOrStore(m, f)
	return actual.(*Field)
}

// newField builds the tables for GF(2^m).
func newField(m int) *Field {
	poly, ok := primitivePolys[m]
	if !ok {
		panic(fmt.Sprintf("galois: unsupported extension degree m=%d", m))
	}
	f := &Field{
		m:    m,
		n:    1<<m - 1,
		poly: poly,
		exp:  make([]Elem, 2*(1<<m-1)),
		log:  make([]int, 1<<m),
	}
	x := uint32(1)
	for i := 0; i < f.n; i++ {
		f.exp[i] = Elem(x)
		f.exp[i+f.n] = Elem(x)
		f.log[x] = i
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= poly
		}
	}
	return f
}

// M returns the extension degree m.
func (f *Field) M() int { return f.m }

// Order returns the multiplicative group order 2^m - 1.
func (f *Field) Order() int { return f.n }

// Alpha returns the primitive element alpha (the class of x).
func (f *Field) Alpha() Elem { return f.exp[1] }

// Exp returns alpha^i for any integer i (negative allowed). Exponents
// in [0, 2^(m+1)-2) are a plain table read, without the reduction.
func (f *Field) Exp(i int) Elem {
	if uint(i) < uint(len(f.exp)) {
		return f.exp[i]
	}
	i %= f.n
	if i < 0 {
		i += f.n
	}
	return f.exp[i]
}

// Log returns the discrete logarithm of a nonzero element. It panics on
// zero, for which the logarithm is undefined.
func (f *Field) Log(a Elem) int {
	if a == 0 {
		panic("galois: log of zero")
	}
	return f.log[a]
}

// Add returns a + b (XOR in characteristic 2).
func (f *Field) Add(a, b Elem) Elem { return a ^ b }

// Mul returns a * b.
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a. It panics on zero.
func (f *Field) Inv(a Elem) Elem {
	if a == 0 {
		panic("galois: inverse of zero")
	}
	return f.exp[f.n-f.log[a]]
}

// Div returns a / b. It panics if b is zero.
func (f *Field) Div(a, b Elem) Elem {
	if b == 0 {
		panic("galois: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.n-f.log[b]]
}

// Pow returns a^k for k >= 0, with a^0 = 1 (including 0^0 = 1 by
// convention, which is what polynomial evaluation needs).
func (f *Field) Pow(a Elem, k int) Elem {
	if k == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	e := (f.log[a] * k) % f.n
	if e < 0 {
		e += f.n
	}
	return f.exp[e]
}

// MinimalPolynomial returns the minimal polynomial over GF(2) of alpha^i,
// encoded as a uint64 with bit j representing x^j. Minimal polynomials are
// the building blocks of BCH generator polynomials: the generator is the
// LCM of the minimal polynomials of alpha^1 .. alpha^(d-1).
func (f *Field) MinimalPolynomial(i int) uint64 {
	// Collect the cyclotomic coset {i, 2i, 4i, ...} mod (2^m - 1).
	coset := f.CyclotomicCoset(i)
	// minpoly(x) = prod over coset of (x - alpha^j), computed with
	// coefficients in GF(2^m); the result must land in GF(2).
	coeffs := []Elem{1} // constant polynomial 1
	for _, j := range coset {
		root := f.Exp(j)
		next := make([]Elem, len(coeffs)+1)
		// multiply by (x + root): next = coeffs*x + coeffs*root
		for k, c := range coeffs {
			next[k+1] ^= c
			next[k] ^= f.Mul(c, root)
		}
		coeffs = next
	}
	var out uint64
	for k, c := range coeffs {
		switch c {
		case 0:
		case 1:
			out |= 1 << uint(k)
		default:
			panic(fmt.Sprintf("galois: minimal polynomial coefficient %v not in GF(2)", c))
		}
	}
	return out
}

// CyclotomicCoset returns the 2-cyclotomic coset of i modulo 2^m - 1 in
// increasing order of generation: {i, 2i, 4i, ...}.
func (f *Field) CyclotomicCoset(i int) []int {
	i %= f.n
	if i < 0 {
		i += f.n
	}
	var coset []int
	j := i
	for {
		coset = append(coset, j)
		j = (2 * j) % f.n
		if j == i {
			break
		}
	}
	return coset
}
