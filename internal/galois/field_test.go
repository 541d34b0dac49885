package galois

import (
	"testing"
	"testing/quick"
)

// Eval evaluates p at x by Horner's rule: the reference the field's
// polynomial arithmetic is checked against.
func (f *Field) Eval(p Poly, x Elem) Elem {
	var acc Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}

func TestFieldConstruction(t *testing.T) {
	for m := 2; m <= 16; m++ {
		f := NewField(m)
		if f.Order() != 1<<m-1 {
			t.Fatalf("m=%d: order = %d", m, f.Order())
		}
		// alpha must generate the full multiplicative group: exp table
		// must contain every nonzero element exactly once.
		seen := make(map[Elem]bool)
		for i := 0; i < f.Order(); i++ {
			e := f.Exp(i)
			if e == 0 || seen[e] {
				t.Fatalf("m=%d: alpha is not primitive (repeat at %d)", m, i)
			}
			seen[e] = true
		}
	}
}

func TestUnsupportedDegreePanics(t *testing.T) {
	for _, m := range []int{0, 1, 17, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("m=%d: expected panic", m)
				}
			}()
			NewField(m)
		}()
	}
}

func TestExpLogInverse(t *testing.T) {
	f := NewField(8)
	for i := 0; i < f.Order(); i++ {
		if f.Log(f.Exp(i)) != i {
			t.Fatalf("Log(Exp(%d)) != %d", i, i)
		}
	}
	if f.Exp(-1) != f.Exp(f.Order()-1) {
		t.Fatal("negative exponent wrap failed")
	}
	if f.Exp(f.Order()) != 1 {
		t.Fatal("Exp(order) != 1")
	}
}

func TestMulProperties(t *testing.T) {
	f := NewField(6)
	n := Elem(1 << 6)
	for a := Elem(0); a < n; a++ {
		if f.Mul(a, 0) != 0 || f.Mul(0, a) != 0 {
			t.Fatal("multiplication by zero")
		}
		if f.Mul(a, 1) != a {
			t.Fatalf("a*1 != a for a=%d", a)
		}
	}
	// Commutativity and associativity on a sample.
	for a := Elem(1); a < n; a += 3 {
		for b := Elem(1); b < n; b += 5 {
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("commutativity fails at %d,%d", a, b)
			}
			for c := Elem(1); c < n; c += 11 {
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("associativity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestDistributivity(t *testing.T) {
	f := NewField(5)
	n := Elem(1 << 5)
	for a := Elem(0); a < n; a++ {
		for b := Elem(0); b < n; b++ {
			for c := Elem(0); c < n; c += 7 {
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestInvDiv(t *testing.T) {
	f := NewField(8)
	for a := Elem(1); a < 256; a++ {
		inv := f.Div(1, a)
		if f.Mul(a, inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
		if f.Div(a, a) != 1 {
			t.Fatalf("a/a != 1 for a=%d", a)
		}
	}
	if f.Div(0, 5) != 0 {
		t.Fatal("0/b != 0")
	}
}

func TestZeroDivisionPanics(t *testing.T) {
	f := NewField(4)
	for i, fn := range []func(){
		func() { f.Div(3, 0) },
		func() { f.Log(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCyclotomicCoset(t *testing.T) {
	f := NewField(4) // n = 15
	c1 := f.CyclotomicCoset(1)
	want := []int{1, 2, 4, 8}
	if len(c1) != len(want) {
		t.Fatalf("coset(1) = %v", c1)
	}
	for i := range want {
		if c1[i] != want[i] {
			t.Fatalf("coset(1) = %v, want %v", c1, want)
		}
	}
	c5 := f.CyclotomicCoset(5) // {5, 10}
	if len(c5) != 2 || c5[0] != 5 || c5[1] != 10 {
		t.Fatalf("coset(5) = %v", c5)
	}
	c0 := f.CyclotomicCoset(0)
	if len(c0) != 1 || c0[0] != 0 {
		t.Fatalf("coset(0) = %v", c0)
	}
}

func TestMinimalPolynomialGF16(t *testing.T) {
	// Classic table for GF(2^4) with primitive poly x^4 + x + 1.
	f := NewField(4)
	cases := map[int]uint64{
		0: 0x3,  // x + 1 (minimal polynomial of alpha^0 = 1)
		1: 0x13, // x^4 + x + 1
		3: 0x1f, // x^4 + x^3 + x^2 + x + 1
		5: 0x7,  // x^2 + x + 1
		7: 0x19, // x^4 + x^3 + 1
	}
	for i, want := range cases {
		if got := f.MinimalPolynomial(i); got != want {
			t.Errorf("minpoly(alpha^%d) = %#x, want %#x", i, got, want)
		}
	}
}

func TestMinimalPolynomialHasRoot(t *testing.T) {
	// Every minimal polynomial must vanish on its defining element, for
	// several field sizes.
	for _, m := range []int{3, 5, 8, 10} {
		f := NewField(m)
		for i := 1; i < 20; i++ {
			mp := f.MinimalPolynomial(i)
			// Evaluate the GF(2) polynomial at alpha^i in GF(2^m).
			var acc Elem
			a := f.Exp(i)
			for k := 63; k >= 0; k-- {
				acc = f.Mul(acc, a)
				if mp>>uint(k)&1 == 1 {
					acc = f.Add(acc, 1)
				}
			}
			if acc != 0 {
				t.Fatalf("m=%d: minpoly(alpha^%d) does not vanish", m, i)
			}
		}
	}
}

func TestPolyArithmetic(t *testing.T) {
	f := NewField(8)
	p := Poly{1, 2, 3} // 3x^2 + 2x + 1
	q := Poly{5, 1}    // x + 5
	pq := f.PolyMul(p, q)
	want := Poly{
		f.Mul(1, 5),
		f.Add(f.Mul(2, 5), 1),
		f.Add(f.Mul(3, 5), 2),
		3,
	}
	if !polyEqual(pq, want) {
		t.Fatalf("p*q = %v, want %v", pq, want)
	}
	if f.PolyMul(p, nil) != nil {
		t.Fatal("p*0 != 0")
	}
}

func polyEqual(a, b Poly) bool {
	a, b = a.trim(), b.trim()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvalHorner(t *testing.T) {
	f := NewField(8)
	p := Poly{7, 0, 1} // x^2 + 7
	for x := Elem(0); x < 256; x += 13 {
		want := f.Add(f.Mul(x, x), 7)
		if got := f.Eval(p, x); got != want {
			t.Fatalf("Eval at %d = %d, want %d", x, got, want)
		}
	}
	if f.Eval(nil, 5) != 0 {
		t.Fatal("Eval of zero poly != 0")
	}
}

// Property: (a*b)/b == a for random nonzero b.
func TestMulDivProperty(t *testing.T) {
	f := NewField(12)
	fn := func(x, y uint16) bool {
		a := Elem(x) % Elem(f.Order()+1)
		b := Elem(y)%Elem(f.Order()) + 1 // nonzero
		return f.Div(f.Mul(a, b), b) == a
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

// Property: polynomial evaluation is a ring homomorphism:
// (p*q)(x) == p(x)*q(x), (p+q)(x) == p(x)+q(x).
func TestEvalHomomorphism(t *testing.T) {
	f := NewField(8)
	fn := func(c1, c2, c3, c4, xv uint8) bool {
		p := Poly{Elem(c1), Elem(c2)}
		q := Poly{Elem(c3), Elem(c4)}
		x := Elem(xv)
		mulOK := f.Eval(f.PolyMul(p, q), x) == f.Mul(f.Eval(p, x), f.Eval(q, x))
		sum := Poly{f.Add(p[0], q[0]), f.Add(p[1], q[1])}
		addOK := f.Eval(sum, x) == f.Add(f.Eval(p, x), f.Eval(q, x))
		return mulOK && addOK
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulGF13(b *testing.B) {
	f := NewField(13)
	for i := 0; i < b.N; i++ {
		_ = f.Mul(Elem(i&0xfff|1), 0x5a5)
	}
}
