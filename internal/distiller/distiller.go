// Package distiller implements the regression-based entropy distiller of
// Yin & Qu (DAC 2013), the building block the paper attacks in Sections
// V-A and VI-C/D. The distiller models systematic (spatially correlated)
// manufacturing variation of the RO frequency map f(x, y) as a bivariate
// polynomial of degree p, fitted least-squares at enrollment; the
// coefficients are public helper data, and every key regeneration
// subtracts the polynomial to keep only the random residuals.
//
// Because the coefficients live in attacker-writable NVM, an attacker can
// superimpose an arbitrary steep pattern onto the fitted surface and
// overshadow the random variation — the core of the paper's entropy-
// distiller attacks. The pattern constructors used by those attacks
// (tilted planes, quadratic valleys) live here too.
package distiller

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/linalg"
)

// Poly2D is a bivariate polynomial sum_{i=0..P} sum_{j=0..i}
// beta[i,j] * x^(i-j) * y^j, exactly the expression in paper §V-A. The
// coefficient for (i, j) is stored at Beta[i*(i+1)/2 + j].
type Poly2D struct {
	P    int
	Beta []float64
}

// NumTerms returns the coefficient count of a degree-p polynomial,
// (p+1)(p+2)/2.
func NumTerms(p int) int { return (p + 1) * (p + 2) / 2 }

// NewPoly2D returns the zero polynomial of degree p.
func NewPoly2D(p int) Poly2D {
	if p < 0 {
		panic("distiller: negative degree")
	}
	return Poly2D{P: p, Beta: make([]float64, NumTerms(p))}
}

// term returns the flat index of coefficient (i, j).
func term(i, j int) int { return i*(i+1)/2 + j }

// Coeff returns beta[i,j]. It panics outside the triangle j <= i <= P.
func (q Poly2D) Coeff(i, j int) float64 {
	q.checkIJ(i, j)
	return q.Beta[term(i, j)]
}

// SetCoeff assigns beta[i,j].
func (q *Poly2D) SetCoeff(i, j int, v float64) {
	q.checkIJ(i, j)
	q.Beta[term(i, j)] = v
}

func (q Poly2D) checkIJ(i, j int) {
	if i < 0 || i > q.P || j < 0 || j > i {
		panic(fmt.Sprintf("distiller: coefficient (%d,%d) outside degree-%d triangle", i, j, q.P))
	}
}

// Eval evaluates the polynomial at (x, y).
func (q Poly2D) Eval(x, y float64) float64 {
	// Degrees below 8 keep both power tables on the stack.
	var stack [2 * 8]float64
	buf := stack[:]
	if 2*(q.P+1) > len(buf) {
		buf = make([]float64, 2*(q.P+1))
	}
	xp, yp := buf[:q.P+1], buf[q.P+1:2*(q.P+1)]
	powers(xp, x)
	powers(yp, y)
	return q.sum(xp, yp)
}

// sum adds up beta[i,j] * x^(i-j) * y^j over the triangle, given the
// powers xp[k] = x^k and yp[k] = y^k for k <= P.
func (q Poly2D) sum(xp, yp []float64) float64 {
	var s float64
	for i := 0; i <= q.P; i++ {
		for j := 0; j <= i; j++ {
			s += q.Beta[term(i, j)] * xp[i-j] * yp[j]
		}
	}
	return s
}

// powers fills dst[k] = x^k for k < len(dst), one multiply per entry, in
// the square-and-multiply order of the standard library's Pow: x^(2^j)
// is the square of x^(2^(j-1)), and any other x^k is x^(k-top) * x^top
// for top the highest power of two below k. Pow runs the same products
// on the mantissa with the exponent kept apart, so every entry is
// bit-identical to Pow(x, k) wherever the powers stay normal.
func powers(dst []float64, x float64) {
	for k := range dst {
		switch {
		case k == 0:
			dst[k] = 1
		case k == 1:
			dst[k] = x
		case k&(k-1) == 0:
			dst[k] = dst[k/2] * dst[k/2]
		default:
			top := 1 << (bits.Len(uint(k)) - 1)
			dst[k] = dst[k-top] * dst[top]
		}
	}
}

// AddInto returns the superposition q + r, promoted to the larger
// degree. This is the attacker's primitive: "the attacker's intended
// pattern can be superimposed onto the original spatial correlation
// map". The result's Beta lives in buf (regrown only when too small; nil
// for fresh storage), so an attack loop superimposing a fresh pattern
// per hypothesis test reuses one buffer.
func (q Poly2D) AddInto(r Poly2D, buf []float64) Poly2D {
	p := q.P
	if r.P > p {
		p = r.P
	}
	n := NumTerms(p)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	out := Poly2D{P: p, Beta: buf}
	for i := 0; i <= q.P; i++ {
		for j := 0; j <= i; j++ {
			out.Beta[term(i, j)] += q.Beta[term(i, j)]
		}
	}
	for i := 0; i <= r.P; i++ {
		for j := 0; j <= i; j++ {
			out.Beta[term(i, j)] += r.Beta[term(i, j)]
		}
	}
	return out
}

// Fit least-squares fits a degree-p polynomial to the frequency map of a
// rows x cols array, f indexed row-major (x = column, y = row), matching
// the paper's "coefficients beta_{i,j} may be determined in a least mean
// squares manner". The paper reports p = 2 and p = 3 as good values for a
// 16x32 array.
//
// The design matrix depends only on (rows, cols, degree), so its
// factored normal equations are built once per geometry and shared
// (fitSolver); a fit then costs one A^T f and the recorded elimination.
func Fit(rows, cols int, f []float64, degree int) (Poly2D, error) {
	if len(f) != rows*cols {
		return Poly2D{}, fmt.Errorf("distiller: %d samples for %dx%d array", len(f), rows, cols)
	}
	if degree < 0 {
		return Poly2D{}, fmt.Errorf("distiller: negative degree %d", degree)
	}
	terms := NumTerms(degree)
	if len(f) < terms {
		return Poly2D{}, fmt.Errorf("distiller: %d samples cannot determine %d coefficients", len(f), terms)
	}
	s, err := fitSolver(rows, cols, degree)
	if err != nil {
		return Poly2D{}, fmt.Errorf("distiller: fit failed: %w", err)
	}
	beta, err := s.Solve(f)
	if err != nil {
		return Poly2D{}, fmt.Errorf("distiller: fit failed: %w", err)
	}
	return Poly2D{P: degree, Beta: beta}, nil
}

// fitGeometry keys the interned fit solvers.
type fitGeometry struct{ rows, cols, degree int }

// fitSolvers interns one factored least-squares solver per geometry, as
// ecc.NewBCH interns one code per configuration: every device of one
// geometry shares the design matrix and its elimination.
var fitSolvers sync.Map // fitGeometry -> *linalg.LeastSquares

// fitSolver returns the shared solver of Fit's design matrix for a
// rows x cols array at degree p. Only successful factorizations are
// cached; a singular geometry is rejected again on every call.
func fitSolver(rows, cols, degree int) (*linalg.LeastSquares, error) {
	key := fitGeometry{rows, cols, degree}
	if s, ok := fitSolvers.Load(key); ok {
		return s.(*linalg.LeastSquares), nil
	}
	s, err := linalg.NewLeastSquares(design(rows, cols, degree))
	if err != nil {
		return nil, err
	}
	actual, _ := fitSolvers.LoadOrStore(key, s)
	return actual.(*linalg.LeastSquares), nil
}

// design returns Fit's design matrix: one row per cell (row-major), one
// column per monomial x^(i-j) * y^j in coefficient order.
func design(rows, cols, degree int) *linalg.Matrix {
	a := linalg.NewMatrix(rows*cols, NumTerms(degree))
	np := degree + 1
	xp, yp := make([]float64, cols*np), make([]float64, rows*np)
	for c := 0; c < cols; c++ {
		powers(xp[c*np:(c+1)*np], float64(c))
	}
	for r := 0; r < rows; r++ {
		powers(yp[r*np:(r+1)*np], float64(r))
	}
	for idx := 0; idx < rows*cols; idx++ {
		x, y := xp[idx%cols*np:], yp[idx/cols*np:]
		for i := 0; i <= degree; i++ {
			for j := 0; j <= i; j++ {
				a.Set(idx, term(i, j), x[i-j]*y[j])
			}
		}
	}
	return a
}

// Distill subtracts the polynomial surface from a frequency map and
// returns the residuals — the "desired random variations" that feed the
// downstream grouping or pairing logic.
func Distill(rows, cols int, f []float64, q Poly2D) []float64 {
	if len(f) != rows*cols {
		panic(fmt.Sprintf("distiller: %d samples for %dx%d array", len(f), rows, cols))
	}
	return DistillWithGrid(make([]float64, len(f)), f, q.EvalGrid(rows, cols, nil))
}

// EvalGrid evaluates the polynomial at every cell of a rows x cols array
// (row-major, x = column, y = row) into dst, allocating only when dst is
// too small. The surface depends solely on the helper coefficients, so
// reconstruction hot loops evaluate it once per helper write and reuse
// the grid across measurements. The x powers are computed once per
// column and the y powers once per row; every cell is bit-identical to
// Eval at its coordinates.
func (q Poly2D) EvalGrid(rows, cols int, dst []float64) []float64 {
	n := rows * cols
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	// The power tables of the array sizes in use, (cols+1)(P+1) <= 256,
	// stay on the stack: a reused dst makes EvalGrid allocation-free.
	np := q.P + 1
	var stack [256]float64
	buf := stack[:]
	if (cols+1)*np > len(buf) {
		buf = make([]float64, (cols+1)*np)
	}
	xp, yp := buf[:cols*np], buf[cols*np:(cols+1)*np]
	for c := 0; c < cols; c++ {
		powers(xp[c*np:(c+1)*np], float64(c))
	}
	for r := 0; r < rows; r++ {
		powers(yp, float64(r))
		for c := 0; c < cols; c++ {
			dst[r*cols+c] = q.sum(xp[c*np:(c+1)*np], yp)
		}
	}
	return dst
}

// Grid caches a polynomial's surface on a rows × cols array by content.
// A reconstruction evaluates the surface of the helper it runs; an
// attack arm's hypothesis sweep rewrites the helper with the same
// polynomial over and over, and Eval skips those re-evaluations. The
// zero value is ready; not concurrency-safe.
type Grid struct {
	vals       []float64
	valid      bool
	rows, cols int
	p          int
	beta       []float64
}

// Eval returns q's surface on the rows × cols array (EvalGrid's values,
// grid-owned) and whether it re-evaluated it, because q or the geometry
// differs from the last call's; then anything holding the previous
// values must take the new ones.
func (g *Grid) Eval(q Poly2D, rows, cols int) (vals []float64, changed bool) {
	if g.valid && q.P == g.p && rows == g.rows && cols == g.cols && slices.Equal(g.beta, q.Beta) {
		return g.vals, false
	}
	g.vals = q.EvalGrid(rows, cols, g.vals)
	g.rows, g.cols, g.p = rows, cols, q.P
	g.beta = append(g.beta[:0], q.Beta...)
	g.valid = true
	return g.vals, true
}

// DistillWithGrid subtracts a precomputed EvalGrid surface from a
// frequency map into dst and returns it; output is bit-identical to
// Distill with the grid's polynomial.
func DistillWithGrid(dst, f, grid []float64) []float64 {
	if len(f) != len(grid) {
		panic(fmt.Sprintf("distiller: %d samples for %d-cell grid", len(f), len(grid)))
	}
	if cap(dst) < len(f) {
		dst = make([]float64, len(f))
	}
	dst = dst[:len(f)]
	for idx, v := range f {
		dst[idx] = v - grid[idx]
	}
	return dst
}

// Variance returns the population variance of a sample set; used to
// report the systematic/random decomposition of experiment E2 (Fig. 2).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var s float64
	for _, v := range xs {
		s += (v - mean) * (v - mean)
	}
	return s / float64(len(xs))
}

// --- attack pattern constructors (paper Fig. 6) ---

// Plane returns the tilted plane c0 + cx*x + cy*y, the pattern the paper
// suggests "if G1 would cover a single column only".
func Plane(c0, cx, cy float64) Poly2D {
	q := NewPoly2D(1)
	q.SetCoeff(0, 0, c0)
	q.SetCoeff(1, 0, cx)
	q.SetCoeff(1, 1, cy)
	return q
}

// QuadraticValleyX returns amp * (x - x0)^2: a quadratic surface constant
// in y whose extremum sits at column x0 (the triangle marker of Fig. 6).
// Oscillators equidistant from x0 receive identical pattern values, so
// their mutual order stays decided by the true random variation — the
// mechanism isolating the target bit in the Fig. 6 attacks.
func QuadraticValleyX(x0, amp float64) Poly2D {
	q := NewPoly2D(2)
	q.SetCoeff(0, 0, amp*x0*x0)
	q.SetCoeff(1, 0, -2*amp*x0)
	q.SetCoeff(2, 0, amp)
	return q
}

// QuadraticValleyY is QuadraticValleyX with the roles of x and y swapped.
func QuadraticValleyY(y0, amp float64) Poly2D {
	q := NewPoly2D(2)
	q.SetCoeff(0, 0, amp*y0*y0)
	q.SetCoeff(1, 1, -2*amp*y0)
	q.SetCoeff(2, 2, amp)
	return q
}

// PerpendicularPlane returns a steep plane whose level lines pass through
// both (x1, y1) and (x2, y2): the two targets receive the same pattern
// value while the gradient (of magnitude amp in the normal direction)
// separates everyone off the line. The general-position generalization of
// the valley patterns.
func PerpendicularPlane(x1, y1, x2, y2 int, amp float64) Poly2D {
	// Direction of the segment; the plane gradient is its normal.
	dx := float64(x2 - x1)
	dy := float64(y2 - y1)
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		panic("distiller: coincident targets have no separating plane")
	}
	nx, ny := -dy/norm, dx/norm
	// Plane value: amp * ((x-x1)*nx + (y-y1)*ny).
	return Plane(-amp*(float64(x1)*nx+float64(y1)*ny), amp*nx, amp*ny)
}

// --- NVM serialization ---

// Append appends the polynomial's helper NVM encoding to dst and
// returns the extended slice: the degree, then the little-endian
// float64 coefficients. Append(nil) allocates exactly once.
func (q Poly2D) Append(dst []byte) []byte {
	if need := len(dst) + 2 + 8*len(q.Beta); cap(dst) < need {
		// One allocation in every build (see bitvec.Vector.Append).
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(q.P))
	for _, b := range q.Beta {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b))
	}
	return dst
}

// UnmarshalInto parses Append's encoding into *dst, reusing its
// coefficient storage when the capacity suffices. It accepts exactly
// the encodings Append produces. On error *dst is left unchanged.
func UnmarshalInto(dst *Poly2D, data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("distiller: helper truncated")
	}
	p := int(binary.LittleEndian.Uint16(data))
	want := 2 + 8*NumTerms(p)
	if len(data) != want {
		return fmt.Errorf("distiller: helper length %d, want %d for degree %d", len(data), want, p)
	}
	if n := NumTerms(p); cap(dst.Beta) < n {
		*dst = NewPoly2D(p)
	} else {
		*dst = Poly2D{P: p, Beta: dst.Beta[:n]}
	}
	for i := range dst.Beta {
		dst.Beta[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[2+8*i:]))
	}
	return nil
}
