package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// solve factors a and solves for b: the one solve path, on the square
// systems the SolveSquare tests pose (a nonsingular square A has the
// exact solution as its least-squares solution).
func solve(a *Matrix, b []float64) ([]float64, error) {
	s, err := NewLeastSquares(a)
	if err != nil {
		return nil, err
	}
	return s.Solve(b)
}

// residuals returns b - A x.
func residuals(a *Matrix, x, b []float64) []float64 {
	ax := a.MulVec(x)
	out := make([]float64, len(b))
	for i := range b {
		out[i] = b[i] - ax[i]
	}
	return out
}

func TestSolveSquareIdentity(t *testing.T) {
	n := 4
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, 2, 3, 4}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveSquareKnown(t *testing.T) {
	// 2x + y = 5; x - y = 1 => x = 2, y = 1
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := solve(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSquareNeedsPivoting(t *testing.T) {
	// A^T A = [[1, 3], [3, 25]]: the larger magnitude below the first
	// diagonal entry forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 3)
	a.Set(1, 0, 0)
	a.Set(1, 1, 4)
	s, err := NewLeastSquares(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.pivot[0] != 1 {
		t.Fatalf("pivot of column 0 = %d, want a swap with row 1", s.pivot[0])
	}
	// x = (7, 3): b = (1*7 + 3*3, 4*3).
	x, err := s.Solve([]float64{16, 12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSquareSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := NewLeastSquares(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveSquareShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := NewLeastSquares(a); err == nil {
		t.Fatal("expected error for more unknowns than equations")
	}
	sq := NewMatrix(2, 2)
	sq.Set(0, 0, 1)
	sq.Set(1, 1, 1)
	s, err := NewLeastSquares(sq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve([]float64{1}); err == nil {
		t.Fatal("expected error for rhs mismatch")
	}
}

func TestSolveSquareRandomProperty(t *testing.T) {
	// A x = b with known x: solving must recover x for random
	// well-conditioned A (diagonally dominated).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Norm())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // ensure dominance
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Norm()
		}
		b := a.MulVec(want)
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Fit y = 2 + 3x to points lying exactly on the line.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	coef, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-10 || math.Abs(coef[1]-3) > 1e-10 {
		t.Fatalf("coef = %v", coef)
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	// Noisy line: the LS solution's residual must be no larger than
	// nearby perturbed solutions'.
	r := rng.New(5)
	n := 50
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 1 + 0.5*x + r.NormScaled(0, 0.3)
	}
	coef, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(x []float64) float64 {
		res := residuals(a, x, b)
		var s float64
		for _, v := range res {
			s += v * v
		}
		return s
	}
	base := norm(coef)
	for _, d := range [][2]float64{{0.01, 0}, {-0.01, 0}, {0, 0.01}, {0, -0.01}} {
		alt := []float64{coef[0] + d[0], coef[1] + d[1]}
		if norm(alt) < base-1e-12 {
			t.Fatalf("perturbed solution beats LS: %v", alt)
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := NewLeastSquares(a); err == nil {
		t.Fatal("expected error")
	}
}

func TestMatrixOps(t *testing.T) {
	a := NewMatrix(2, 3)
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(a.Data, vals)
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", at)
	}
	// (A^T A) is 3x3 symmetric.
	ata := at.Mul(a)
	if ata.Rows != 3 || ata.Cols != 3 {
		t.Fatal("Mul shape wrong")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if ata.At(i, j) != ata.At(j, i) {
				t.Fatal("A^T A not symmetric")
			}
		}
	}
	v := a.MulVec([]float64{1, 1, 1})
	if v[0] != 6 || v[1] != 15 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestShapePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewMatrix(0, 1) },
		func() { NewMatrix(1, -1) },
		func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		func() { NewMatrix(2, 2).Mul(NewMatrix(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
