// Package linalg provides the small amount of dense real linear algebra
// the entropy distiller needs: solving least-squares problems for the
// polynomial regression of the RO frequency map f(x, y).
//
// The problem sizes are tiny (a degree-p bivariate polynomial has
// (p+1)(p+2)/2 coefficients; the paper uses p in {2, 3}, i.e. 6 or 10
// unknowns), so the normal-equations approach with Gaussian elimination
// and partial pivoting is numerically adequate and keeps the code simple.
// The design matrix depends only on the array geometry and degree, so
// the elimination is factored once per matrix and replayed per
// right-hand side (LeastSquares).
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("linalg: singular system")

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, element (i,j) at i*Cols+j
}

// NewMatrix returns a zero matrix of the given shape. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %d vs %d", m.Cols, other.Rows))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Data[i*out.Cols+j] += a * other.At(k, j)
			}
		}
	}
	return out
}

// LeastSquares solves min_x ||A x - b||_2 for one fixed design matrix A
// and any number of right-hand sides b, via the normal equations
// A^T A x = A^T b. Everything that depends on A alone is done once, by
// NewLeastSquares: A^T, A^T A and its Gaussian elimination with partial
// pivoting, recorded as the pivot row of each column and the factor of
// each row update. Solve computes A^T b and replays the recorded row
// swaps and updates on it, then back-substitutes, so every
// floating-point operation on b's side is the one a fresh elimination
// of [A^T A | A^T b] would run, in the same order: the coefficients are
// bit-identical to eliminating from scratch per b. A LeastSquares is
// immutable after construction and safe for concurrent use.
type LeastSquares struct {
	at *Matrix // A^T
	// u is the eliminated A^T A; back substitution reads its upper
	// triangle.
	u *Matrix
	// pivot[col] is the row swapped into position col before column
	// col is eliminated (col itself when none is); factor[col*n+r] is
	// the multiple of row col subtracted from row r > col.
	pivot  []int
	factor []float64
}

// NewLeastSquares factors the normal equations of a. A must have at
// least as many rows as columns; ErrSingular reports that A^T A has no
// unique solution (a pivot below 1e-12 in magnitude).
func NewLeastSquares(a *Matrix) (*LeastSquares, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: underdetermined least squares %dx%d", a.Rows, a.Cols)
	}
	at := a.Transpose()
	m := at.Mul(a)
	n := m.Rows
	s := &LeastSquares{at: at, u: m, pivot: make([]int, n), factor: make([]float64, n*n)}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below
		// the diagonal.
		pivot := col
		best := abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		s.pivot[col] = pivot
		if pivot != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivot*n+j] = m.Data[pivot*n+j], m.Data[col*n+j]
			}
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := m.At(r, col) * inv
			s.factor[col*n+r] = factor
			if factor == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= factor * m.At(col, j)
			}
		}
	}
	return s, nil
}

// Solve returns the least-squares solution x for the right-hand side b,
// which must have one entry per row of A. x is freshly allocated and is
// the only allocation.
func (s *LeastSquares) Solve(b []float64) ([]float64, error) {
	if len(b) != s.at.Cols {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), s.at.Cols)
	}
	// A^T b, eliminated and then back-substituted in place: back
	// substitution reads x[i] before writing it and only the already
	// solved x[j], j > i, after.
	x := s.at.MulVec(b)
	n, u := len(x), s.u
	for col := 0; col < n; col++ {
		if p := s.pivot[col]; p != col {
			x[col], x[p] = x[p], x[col]
		}
		for r := col + 1; r < n; r++ {
			factor := s.factor[col*n+r]
			if factor == 0 {
				continue
			}
			x[r] -= factor * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := x[i]
		for j := i + 1; j < n; j++ {
			v -= u.At(i, j) * x[j]
		}
		x[i] = v / u.At(i, i)
	}
	return x, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
