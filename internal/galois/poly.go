package galois

// Poly is a polynomial over GF(2^m), coefficient i belonging to x^i.
// The zero polynomial is the empty (or all-zero) coefficient slice.
// Polys are value types: operations return fresh slices.
type Poly []Elem

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p.Degree() == -1 }

// trim drops trailing zero coefficients.
func (p Poly) trim() Poly {
	d := p.Degree()
	return p[:d+1]
}

// PolyMul returns p * q over the field f.
func (f *Field) PolyMul(p, q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return nil
	}
	out := make(Poly, p.Degree()+q.Degree()+1)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			if b == 0 {
				continue
			}
			out[i+j] ^= f.Mul(a, b)
		}
	}
	return out.trim()
}

// CopyInto copies p into the caller-owned buffer dst, growing it only
// when its capacity is insufficient, and returns the (possibly regrown)
// slice. The scratch-buffer counterpart of Clone for decoder workspaces
// that run the Berlekamp-Massey recursion without per-step allocation.
func (p Poly) CopyInto(dst Poly) Poly {
	if cap(dst) < len(p) {
		dst = make(Poly, len(p))
	}
	dst = dst[:len(p)]
	copy(dst, p)
	return dst
}

// SubScaledShiftInto writes c - coef * x^shift * q (characteristic 2, so
// also c + coef * x^shift * q) into dst and returns it trimmed of
// trailing zeros. dst must not alias c or q; it is regrown only when too
// small, so a workspace that rotates three buffers through the
// Berlekamp-Massey recursion settles into zero allocations.
func (f *Field) SubScaledShiftInto(dst, c, q Poly, coef Elem, shift int) Poly {
	n := len(c)
	if m := len(q) + shift; m > n {
		n = m
	}
	if cap(dst) < n {
		dst = make(Poly, n)
	}
	dst = dst[:n]
	copy(dst, c)
	for i := len(c); i < n; i++ {
		dst[i] = 0
	}
	for i, qc := range q {
		if qc != 0 {
			dst[i+shift] = f.Add(dst[i+shift], f.Mul(coef, qc))
		}
	}
	return dst.trim()
}

// Eval evaluates p at x using Horner's rule.
func (f *Field) Eval(p Poly, x Elem) Elem {
	var acc Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}
