package distiller

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/silicon"
)

func TestNumTerms(t *testing.T) {
	for p, want := range map[int]int{0: 1, 1: 3, 2: 6, 3: 10} {
		if NumTerms(p) != want {
			t.Errorf("NumTerms(%d) = %d, want %d", p, NumTerms(p), want)
		}
	}
}

func TestCoeffIndexing(t *testing.T) {
	q := NewPoly2D(3)
	v := 1.0
	for i := 0; i <= 3; i++ {
		for j := 0; j <= i; j++ {
			q.SetCoeff(i, j, v)
			if q.Beta[term(i, j)] != v {
				t.Fatalf("coeff (%d,%d) round trip", i, j)
			}
			v++
		}
	}
	// All 10 slots distinct.
	seen := make(map[float64]bool)
	for _, b := range q.Beta {
		if seen[b] {
			t.Fatal("coefficient slots collide")
		}
		seen[b] = true
	}
}

func TestCoeffPanicsOutsideTriangle(t *testing.T) {
	q := NewPoly2D(2)
	for _, ij := range [][2]int{{3, 0}, {1, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("(%d,%d): expected panic", ij[0], ij[1])
				}
			}()
			q.SetCoeff(ij[0], ij[1], 1)
		}()
	}
}

func TestEvalKnownPolynomial(t *testing.T) {
	// f(x,y) = 2 + 3x + 4y + 5x^2 + 6xy + 7y^2
	q := NewPoly2D(2)
	q.SetCoeff(0, 0, 2)
	q.SetCoeff(1, 0, 3)
	q.SetCoeff(1, 1, 4)
	q.SetCoeff(2, 0, 5)
	q.SetCoeff(2, 1, 6)
	q.SetCoeff(2, 2, 7)
	got := q.Eval(2, 3)
	want := 2 + 3*2 + 4*3 + 5*4 + 6*2*3 + 7*9
	if math.Abs(got-float64(want)) > 1e-12 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

// powMonomial is the math.Pow monomial beta * x^a * y^b that Eval, EvalGrid
// and Fit computed before the powers table, kept as the bit-level
// reference.
func powMonomial(beta, x, y float64, a, b int) float64 {
	return beta * math.Pow(x, float64(a)) * math.Pow(y, float64(b))
}

// powEval is Eval as a sum of powMonomial terms, in Eval's order.
func powEval(q Poly2D, x, y float64) float64 {
	var s float64
	for i := 0; i <= q.P; i++ {
		for j := 0; j <= i; j++ {
			s += powMonomial(q.Beta[term(i, j)], x, y, i-j, j)
		}
	}
	return s
}

// TestEvalBitIdenticalToPow pins the powers table against math.Pow bit
// for bit: powers itself, Eval at integer grid coordinates and at random
// reals in [-1e3, 1e3] (zero, negative zero and negatives included) for
// degrees 0..7, and EvalGrid against Eval cell by cell.
func TestEvalBitIdenticalToPow(t *testing.T) {
	r := rng.New(17)
	uniform := func() float64 { return 2e3*r.Float64() - 1e3 }
	var pts [][2]float64
	for y := 0; y < 16; y++ {
		for x := 0; x < 32; x++ {
			pts = append(pts, [2]float64{float64(x), float64(y)})
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -1, -7, 1e3, -1e3, 0.5, -0.1} {
		pts = append(pts, [2]float64{v, v}, [2]float64{v, uniform()}, [2]float64{uniform(), v})
	}
	for i := 0; i < 300; i++ {
		pts = append(pts, [2]float64{uniform(), uniform()})
	}
	for p := 0; p <= 7; p++ {
		pw := make([]float64, p+1)
		for _, pt := range pts {
			powers(pw, pt[0])
			for k, got := range pw {
				if want := math.Pow(pt[0], float64(k)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("powers(%v)[%d] = %v, math.Pow = %v", pt[0], k, got, want)
				}
			}
		}
		q := NewPoly2D(p)
		for i := range q.Beta {
			q.Beta[i] = uniform()
		}
		for _, pt := range pts {
			got, want := q.Eval(pt[0], pt[1]), powEval(q, pt[0], pt[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("degree %d Eval(%v, %v) = %v, math.Pow reference %v", p, pt[0], pt[1], got, want)
			}
		}
		const rows, cols = 16, 32
		for idx, got := range q.EvalGrid(rows, cols, nil) {
			want := q.Eval(float64(idx%cols), float64(idx/cols))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("degree %d EvalGrid cell %d = %v, Eval %v", p, idx, got, want)
			}
		}
	}
}

// TestEvalAllocationFree pins the stack-resident power tables: the
// attack loops call Eval per oscillator and devices call EvalGrid into a
// reused grid after every helper write.
func TestEvalAllocationFree(t *testing.T) {
	q := QuadraticValleyX(7, 3).AddInto(Plane(1, 2, -1), nil)
	grid := q.EvalGrid(16, 32, nil)
	if got := testing.AllocsPerRun(20, func() { _ = q.Eval(3, 4) }); got > 0 {
		t.Errorf("Eval allocates %.1f/op", got)
	}
	if got := testing.AllocsPerRun(20, func() { grid = q.EvalGrid(16, 32, grid) }); got > 0 {
		t.Errorf("EvalGrid into a reused grid allocates %.1f/op", got)
	}
}

// TestFitBitIdenticalToPowDesign pins Fit's coefficients on a fixed
// 16x32 map against the unfactored least squares over a math.Pow-built
// design matrix.
func TestFitBitIdenticalToPowDesign(t *testing.T) {
	const rows, cols = 16, 32
	r := rng.New(23)
	f := make([]float64, rows*cols)
	for i := range f {
		f[i] = 200 + 0.3*float64(i%cols) - 0.2*float64(i/cols) + r.Norm()
	}
	for degree := 0; degree <= 4; degree++ {
		fit, err := Fit(rows, cols, f, degree)
		if err != nil {
			t.Fatal(err)
		}
		a := linalg.NewMatrix(len(f), NumTerms(degree))
		for idx := range f {
			x, y := float64(idx%cols), float64(idx/cols)
			for i := 0; i <= degree; i++ {
				for j := 0; j <= i; j++ {
					a.Set(idx, term(i, j), powMonomial(1, x, y, i-j, j))
				}
			}
		}
		want, err := referenceLeastSquares(a, f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(fit.Beta[i]) != math.Float64bits(want[i]) {
				t.Fatalf("degree %d coefficient %d = %v, math.Pow design %v", degree, i, fit.Beta[i], want[i])
			}
		}
	}
}

func TestFitRecoversExactPolynomial(t *testing.T) {
	// Generate a frequency map from a known degree-2 polynomial with no
	// noise; the fit must recover the coefficients exactly.
	rows, cols := 8, 12
	truth := NewPoly2D(2)
	truth.SetCoeff(0, 0, 100)
	truth.SetCoeff(1, 0, 0.5)
	truth.SetCoeff(1, 1, -0.3)
	truth.SetCoeff(2, 0, 0.02)
	truth.SetCoeff(2, 1, 0.01)
	truth.SetCoeff(2, 2, -0.015)
	f := make([]float64, rows*cols)
	for idx := range f {
		f[idx] = truth.Eval(float64(idx%cols), float64(idx/cols))
	}
	fit, err := Fit(rows, cols, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth.Beta {
		if math.Abs(fit.Beta[i]-truth.Beta[i]) > 1e-6 {
			t.Fatalf("coefficient %d: %v, want %v", i, fit.Beta[i], truth.Beta[i])
		}
	}
	// Residuals must vanish.
	for _, r := range Distill(rows, cols, f, fit) {
		if math.Abs(r) > 1e-6 {
			t.Fatalf("nonzero residual %v", r)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(2, 2, make([]float64, 5), 1); err == nil {
		t.Fatal("sample-count mismatch must fail")
	}
	if _, err := Fit(1, 2, make([]float64, 2), 2); err == nil {
		t.Fatal("underdetermined fit must fail")
	}
	if _, err := Fit(2, 2, make([]float64, 4), -1); err == nil {
		t.Fatal("negative degree must fail")
	}
}

func TestDistillerRemovesSystematicVariation(t *testing.T) {
	// Experiment E2 in miniature: on a simulated array with a strong
	// systematic trend, the residual variance after distillation must be
	// close to the true random-component variance and far below the raw
	// variance.
	cfg := silicon.DefaultConfig(16, 32) // the paper's array size
	cfg.GradientXMHz = 8
	cfg.GradientYMHz = 4
	cfg.BowlMHz = 3
	a := silicon.NewArray(cfg, rng.New(7))
	f := a.MeasureAveraged(cfg.NominalEnv(), a.NewNoise(rng.New(8)), 9)

	fit, err := Fit(cfg.Rows, cfg.Cols, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	resid := Distill(cfg.Rows, cfg.Cols, f, fit)

	truthRandom := make([]float64, a.N())
	for i := range truthRandom {
		truthRandom[i] = a.RandomComponent(i)
	}
	rawVar := Variance(f)
	residVar := Variance(resid)
	randVar := Variance(truthRandom)

	if residVar >= rawVar*0.8 {
		t.Fatalf("distiller removed too little: raw %v, residual %v", rawVar, residVar)
	}
	if residVar > randVar*1.3 || residVar < randVar*0.7 {
		t.Fatalf("residual variance %v far from random-component variance %v", residVar, randVar)
	}
	// Residuals correlate with the true random component.
	var dot, na, nb float64
	for i := range resid {
		dot += resid[i] * truthRandom[i]
		na += resid[i] * resid[i]
		nb += truthRandom[i] * truthRandom[i]
	}
	if corr := dot / math.Sqrt(na*nb); corr < 0.9 {
		t.Fatalf("residual correlation with truth %v < 0.9", corr)
	}
}

func TestAddSuperimposes(t *testing.T) {
	fit := Plane(1, 2, 3)
	attack := QuadraticValleyX(4, 10)
	sum := fit.AddInto(attack, nil)
	if sum.P != 2 {
		t.Fatalf("promoted degree %d", sum.P)
	}
	for _, pt := range [][2]float64{{0, 0}, {3, 1}, {9, 2}} {
		want := fit.Eval(pt[0], pt[1]) + attack.Eval(pt[0], pt[1])
		if got := sum.Eval(pt[0], pt[1]); math.Abs(got-want) > 1e-9 {
			t.Fatalf("AddInto at %v: %v, want %v", pt, got, want)
		}
	}
}

func TestQuadraticValleyProperties(t *testing.T) {
	q := QuadraticValleyX(4.5, 100)
	// Equidistant columns get equal values: the isolation mechanism.
	if math.Abs(q.Eval(4, 0)-q.Eval(5, 3)) > 1e-9 {
		t.Fatal("columns 4 and 5 (equidistant from 4.5) must tie")
	}
	if math.Abs(q.Eval(2, 1)-q.Eval(7, 2)) > 1e-9 {
		t.Fatal("columns 2 and 7 must tie")
	}
	// Strictly increasing away from the extremum.
	if !(q.Eval(6, 0) > q.Eval(5, 0)) || !(q.Eval(3, 0) > q.Eval(4, 0)) {
		t.Fatal("valley not increasing away from extremum")
	}
	// Constant in y.
	if q.Eval(3, 0) != q.Eval(3, 3) {
		t.Fatal("valley must not depend on y")
	}
	qy := QuadraticValleyY(1.5, 100)
	if math.Abs(qy.Eval(0, 1)-qy.Eval(5, 2)) > 1e-9 {
		t.Fatal("Y valley rows 1 and 2 must tie")
	}
}

func TestPerpendicularPlaneTies(t *testing.T) {
	f := func(x1, y1, x2, y2 uint8) bool {
		a := [2]int{int(x1 % 10), int(y1 % 10)}
		b := [2]int{int(x2 % 10), int(y2 % 10)}
		if a == b {
			return true // skip coincident
		}
		q := PerpendicularPlane(a[0], a[1], b[0], b[1], 50)
		return math.Abs(q.Eval(float64(a[0]), float64(a[1]))-q.Eval(float64(b[0]), float64(b[1]))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerpendicularPlanePanicsOnCoincident(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PerpendicularPlane(2, 2, 2, 2, 1)
}

func TestMarshalRoundTrip(t *testing.T) {
	q := QuadraticValleyX(3.25, -7.5)
	var back Poly2D
	if err := UnmarshalInto(&back, q.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { q.Append(nil) }); allocs != 1 {
		t.Fatalf("Append(nil) allocates %.0f/op, want 1", allocs)
	}
	if back.P != q.P {
		t.Fatalf("degree %d", back.P)
	}
	for i := range q.Beta {
		if back.Beta[i] != q.Beta[i] {
			t.Fatalf("coefficient %d mismatch", i)
		}
	}
	if err := UnmarshalInto(&back, nil); err == nil {
		t.Fatal("nil must fail")
	}
	if err := UnmarshalInto(&back, q.Append(nil)[:10]); err == nil {
		t.Fatal("truncated must fail")
	}
}

func TestVariance(t *testing.T) {
	if Variance(nil) != 0 {
		t.Fatal("empty variance")
	}
	if v := Variance([]float64{2, 2, 2}); v != 0 {
		t.Fatalf("constant variance %v", v)
	}
	if v := Variance([]float64{1, -1, 1, -1}); math.Abs(v-1) > 1e-12 {
		t.Fatalf("variance %v, want 1", v)
	}
}

func BenchmarkFit16x32Degree3(b *testing.B) {
	cfg := silicon.DefaultConfig(16, 32)
	a := silicon.NewArray(cfg, rng.New(1))
	f := a.MeasureIntoWith(make([]float64, a.N()), cfg.NominalEnv(), a.NewNoise(rng.New(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(16, 32, f, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGridEvalCachesByContent pins the surface cache: Eval returns
// EvalGrid's values, and re-evaluates exactly when the polynomial's
// degree or coefficients, or the geometry, differ from the last call's.
func TestGridEvalCachesByContent(t *testing.T) {
	var g Grid
	q := QuadraticValleyX(3, 2)
	same := Poly2D{P: q.P, Beta: append([]float64(nil), q.Beta...)}
	moved := QuadraticValleyX(4, 2)
	for i, c := range []struct {
		q          Poly2D
		rows, cols int
		changed    bool
	}{
		{q, 4, 10, true},
		{same, 4, 10, false},
		{moved, 4, 10, true},
		{moved, 4, 10, false},
		{moved, 5, 8, true},
		{Plane(1, 0, 0), 5, 8, true},
		{NewPoly2D(2), 5, 8, true},
	} {
		vals, changed := g.Eval(c.q, c.rows, c.cols)
		if changed != c.changed {
			t.Fatalf("call %d: changed %v, want %v", i, changed, c.changed)
		}
		want := c.q.EvalGrid(c.rows, c.cols, nil)
		if !slices.Equal(vals, want) {
			t.Fatalf("call %d: %v, want %v", i, vals, want)
		}
	}
}
