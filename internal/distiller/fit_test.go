package distiller

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// referenceLeastSquares is the unfactored normal-equations solve Fit ran
// before its solvers were interned: A^T A and A^T b built per call, then
// Gaussian elimination with partial pivoting of [A^T A | A^T b] and back
// substitution. The factored solver must match it bit for bit.
func referenceLeastSquares(a *linalg.Matrix, b []float64) ([]float64, error) {
	at := a.Transpose()
	m := at.Mul(a)
	rhs := at.MulVec(b)
	n := m.Rows
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, linalg.ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivot*n+j] = m.Data[pivot*n+j], m.Data[col*n+j]
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := m.At(r, col) * inv
			if factor == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= factor * m.At(col, j)
			}
			rhs[r] -= factor * rhs[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// TestFitMatchesUnfactoredSolve pins the interned, factored fit against
// the unfactored elimination on random frequency maps of every geometry
// the devices and experiments use, bit for bit, and a singular geometry
// (a single row cannot determine the y terms) against ErrSingular.
func TestFitMatchesUnfactoredSolve(t *testing.T) {
	r := rng.New(41)
	for _, g := range []struct{ rows, cols int }{{4, 10}, {8, 16}} {
		for _, degree := range []int{2, 3} {
			a := design(g.rows, g.cols, degree)
			for trial := 0; trial < 20; trial++ {
				f := make([]float64, g.rows*g.cols)
				for i := range f {
					f[i] = 200 + 0.3*float64(i%g.cols) - 0.2*float64(i/g.cols) + r.NormScaled(0, 1+float64(trial))
				}
				want, err := referenceLeastSquares(a, f)
				if err != nil {
					t.Fatal(err)
				}
				fit, err := Fit(g.rows, g.cols, f, degree)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(fit.Beta[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d degree %d trial %d coefficient %d = %v, unfactored %v",
							g.rows, g.cols, degree, trial, i, fit.Beta[i], want[i])
					}
				}
			}
		}
	}
	f := make([]float64, 12)
	for i := range f {
		f[i] = r.Norm()
	}
	if _, err := referenceLeastSquares(design(1, len(f), 2), f); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("unfactored 1x%d degree 2: err = %v, want ErrSingular", len(f), err)
	}
	for range 2 { // the failure is not cached
		if _, err := Fit(1, len(f), f, 2); !errors.Is(err, linalg.ErrSingular) {
			t.Fatalf("Fit 1x%d degree 2: err = %v, want ErrSingular", len(f), err)
		}
	}
}

// TestFitConcurrentFirstUse races the first fits of geometries no other
// test uses (run under -race): every goroutine must get the same
// coefficients, and one solver per geometry must end up interned.
func TestFitConcurrentFirstUse(t *testing.T) {
	const rows, cols, workers = 5, 7, 8
	r := rng.New(43)
	f := make([]float64, rows*cols)
	for i := range f {
		f[i] = 100 + r.Norm()
	}
	for _, degree := range []int{2, 3} {
		want, err := referenceLeastSquares(design(rows, cols, degree), f)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fit, err := Fit(rows, cols, f, degree)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range want {
					if math.Float64bits(fit.Beta[i]) != math.Float64bits(want[i]) {
						errs[w] = fmt.Errorf("coefficient %d = %v, want %v", i, fit.Beta[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("degree %d worker %d: %v", degree, w, err)
			}
		}
		s1, _ := fitSolver(rows, cols, degree)
		s2, _ := fitSolver(rows, cols, degree)
		if s1 == nil || s1 != s2 {
			t.Fatalf("degree %d: solver not interned (%p, %p)", degree, s1, s2)
		}
	}
}
