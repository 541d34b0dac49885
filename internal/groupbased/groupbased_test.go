package groupbased

import (
	"errors"

	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// enroll runs Enroll the way the devices do: the noise key is src's
// first draw, and src then drives the enrollment randomness.
func enroll(a *silicon.Array, p Params, src *rng.Source) (Helper, bitvec.Vector, error) {
	return Enroll(a, p, src, a.NewNoise(src), new(Scratch))
}

// reconstruct runs one Reconstruct against fresh scratch, so each call
// revalidates h exactly as a device does after a helper write.
func reconstruct(a *silicon.Array, p Params, h Helper, env silicon.Environment, nm *silicon.Noise) (bitvec.Vector, error) {
	return Reconstruct(a, p, &h, env, nm, new(Scratch))
}

func TestGroupRespectsThreshold(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormScaled(0, 2)
		}
		g := Group(vals, 0.5)
		return g.CheckThreshold(vals, 0.5) == nil && g.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGroupKnownExample(t *testing.T) {
	// Frequencies 10, 8, 6, 4 with threshold 1: all fit in one group
	// (consecutive gaps of 2 > 1).
	g := Group([]float64{10, 8, 6, 4}, 1)
	if g.NumGroups() != 1 {
		t.Fatalf("%d groups, want 1", g.NumGroups())
	}
	// Threshold 3: 10 and 6 pair (gap 4), 8 and 4 pair (gap 4).
	g2 := Group([]float64{10, 8, 6, 4}, 3)
	if g2.NumGroups() != 2 {
		t.Fatalf("%d groups, want 2", g2.NumGroups())
	}
	if g2.Assign[0] != g2.Assign[2] || g2.Assign[1] != g2.Assign[3] {
		t.Fatalf("assignments %v", g2.Assign)
	}
}

func TestGroupGreedyPrefersFirstGroup(t *testing.T) {
	// Algorithm 2 walks groups in order and takes the first that fits,
	// keeping early groups large.
	vals := []float64{100, 90, 80, 70, 60, 50}
	g := Group(vals, 5)
	// Every consecutive gap is 10 > 5, so one big group.
	if g.NumGroups() != 1 {
		t.Fatalf("%d groups, want 1", g.NumGroups())
	}
}

func TestGroupingEntropyFavorsFewLargeGroups(t *testing.T) {
	// Paper §V-B: few large groups beat many small ones. One group of 4
	// (log2 4! = 4.58) vs two groups of 2 (2 * log2 2 = 2).
	one, _ := PairsToGrouping(4, [][]int{{0, 1, 2, 3}})
	two, _ := PairsToGrouping(4, [][]int{{0, 1}, {2, 3}})
	if Entropy(&one) <= Entropy(&two) {
		t.Fatalf("entropy %v <= %v", Entropy(&one), Entropy(&two))
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []Grouping{
		{Assign: []int{0, 2}},    // gap: group 1 missing
		{Assign: []int{-1, 0}},   // negative id
		{Assign: []int{0, 0, 0}}, // wrong length for n=2 below
	}
	if cases[0].Validate(2) == nil {
		t.Error("gap in group ids must fail")
	}
	if cases[1].Validate(2) == nil {
		t.Error("negative id must fail")
	}
	if cases[2].Validate(2) == nil {
		t.Error("length mismatch must fail")
	}
}

func TestPairsToGrouping(t *testing.T) {
	g, err := PairsToGrouping(4, [][]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Assign[0] != 0 || g.Assign[2] != 0 || g.Assign[1] != 1 || g.Assign[3] != 1 {
		t.Fatalf("assign %v", g.Assign)
	}
	if _, err := PairsToGrouping(4, [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlap must fail")
	}
	if _, err := PairsToGrouping(4, [][]int{{0, 1}}); err == nil {
		t.Error("uncovered oscillator must fail")
	}
	if _, err := PairsToGrouping(4, [][]int{{0, 5}}); err == nil {
		t.Error("out-of-range must fail")
	}
}

func TestGroupingMarshalRoundTrip(t *testing.T) {
	g := Group([]float64{5, 3, 9, 1, 7}, 1)
	var back Grouping
	if err := UnmarshalGroupingInto(&back, g.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { g.Append(nil) }); allocs != 1 {
		t.Fatalf("Append(nil) allocates %.0f/op, want 1", allocs)
	}
	for i := range g.Assign {
		if back.Assign[i] != g.Assign[i] {
			t.Fatalf("round trip %v vs %v", back.Assign, g.Assign)
		}
	}
	if err := UnmarshalGroupingInto(&back, []byte{9}); err == nil {
		t.Error("truncated must fail")
	}
}

func TestKendallStreamLength(t *testing.T) {
	g, _ := PairsToGrouping(7, [][]int{{0, 1, 2, 3}, {4, 5}, {6}})
	if StreamLen(&g) != 6+1+0 {
		t.Fatalf("stream length %d, want 7", StreamLen(&g))
	}
	if KeyLen(&g) != 5+1 {
		t.Fatalf("key length %d, want 6", KeyLen(&g))
	}
	res := []float64{4, 3, 2, 1, 10, 20, 0}
	s := KendallStream(&g, res)
	if s.Len() != 7 {
		t.Fatalf("stream %s", s)
	}
	// Group 0 residuals descend with index: order ABCD -> 000000.
	if !s.Slice(0, 6).IsZero() {
		t.Fatalf("group 0 bits %s, want zeros", s.Slice(0, 6))
	}
	// Group 1: RO5 > RO4, so label B precedes A -> bit 1.
	if !s.Get(6) {
		t.Fatal("group 1 bit should be 1")
	}
}

func TestPackKeyMatchesCompactCoding(t *testing.T) {
	g, _ := PairsToGrouping(4, [][]int{{0, 1, 2, 3}})
	res := []float64{1, 2, 4, 3} // order CDBA in labels: residuals desc = RO2,RO3,RO1,RO0 = labels 2,3,1,0
	stream := KendallStream(&g, res)
	key, err := PackKey(&g, stream)
	if err != nil {
		t.Fatal(err)
	}
	want := perm.CompactEncode([]int{2, 3, 1, 0})
	if !key.Equal(want) {
		t.Fatalf("key %s, want %s", key, want)
	}
}

func TestPackKeyRejectsInvalidStream(t *testing.T) {
	g, _ := PairsToGrouping(3, [][]int{{0, 1, 2}})
	// Cyclic tournament 010 is not a valid Kendall coding.
	if _, err := PackKey(&g, bitvec.MustFromString("010")); !errors.Is(err, ErrReconstructFailed) {
		t.Fatalf("err = %v, want ErrReconstructFailed", err)
	}
	// Truncated stream.
	if _, err := PackKey(&g, bitvec.New(2)); !errors.Is(err, ErrReconstructFailed) {
		t.Fatalf("err = %v, want ErrReconstructFailed", err)
	}
}

func testParams() Params {
	return Params{
		Rows: 8, Cols: 16,
		Degree:       2,
		ThresholdMHz: 0.4,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps:   15,
	}
}

func TestEnrollReconstructRoundTrip(t *testing.T) {
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(100))
	h, key, err := enroll(a, p, rng.New(101))
	if err != nil {
		t.Fatal(err)
	}
	if key.Len() == 0 {
		t.Fatal("empty key")
	}
	env := a.Config().NominalEnv()
	okCount := 0
	nm := a.NewNoise(rng.New(102))
	for trial := 0; trial < 20; trial++ {
		got, err := reconstruct(a, p, h, env, nm)
		if err == nil && got.Equal(key) {
			okCount++
		}
	}
	if okCount < 18 {
		t.Fatalf("only %d of 20 reconstructions succeeded", okCount)
	}
}

func TestReconstructAcrossTemperature(t *testing.T) {
	// The distiller + grouping threshold should keep reconstruction
	// alive under moderate temperature excursions.
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(200))
	h, key, err := enroll(a, p, rng.New(201))
	if err != nil {
		t.Fatal(err)
	}
	nm := a.NewNoise(rng.New(202))
	ok := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		got, err := reconstruct(a, p, h, silicon.Environment{TempC: 32, VoltageV: 1.2}, nm)
		if err == nil && got.Equal(key) {
			ok++
		}
	}
	if ok < trials/2 {
		t.Fatalf("only %d of %d warm reconstructions succeeded", ok, trials)
	}
}

func TestReconstructRejectsMalformedHelper(t *testing.T) {
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(300))
	h, _, err := enroll(a, p, rng.New(301))
	if err != nil {
		t.Fatal(err)
	}
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(302))

	bad := h
	bad.Grouping = Grouping{Assign: make([]int, 5)}
	if _, err := reconstruct(a, p, bad, env, nm); err == nil {
		t.Error("wrong-size grouping must fail validation")
	}

	bad2 := h
	bad2.Offset = bitvec.New(7) // not a block multiple
	if _, err := reconstruct(a, p, bad2, env, nm); err == nil {
		t.Error("bad offset length must fail validation")
	}
}

func TestManipulatedOffsetCausesObservableFailure(t *testing.T) {
	// Flipping t+1 bits inside one ECC block of the offset makes
	// reconstruction fail (or yield a different key) — the attack's
	// basic observable.
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(400))
	h, key, err := enroll(a, p, rng.New(401))
	if err != nil {
		t.Fatal(err)
	}
	manip := h
	manip.Offset = h.Offset.Clone()
	for i := 0; i < p.Code.T()+1; i++ {
		manip.Offset.Flip(i)
	}
	nm := a.NewNoise(rng.New(402))
	env := a.Config().NominalEnv()
	failures := 0
	for trial := 0; trial < 10; trial++ {
		got, err := reconstruct(a, p, manip, env, nm)
		if err != nil || !got.Equal(key) {
			failures++
		}
	}
	if failures < 8 {
		t.Fatalf("only %d of 10 manipulated reconstructions failed", failures)
	}
}

func TestAttackerRepartitionReprogramsKey(t *testing.T) {
	// The §VI-C primitive: overwrite poly with a steep valley, make all
	// groups attacker-chosen pairs, and recompute the offset for the
	// predicted stream. Reconstruction must then succeed and yield the
	// attacker's key.
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(500))
	h, _, err := enroll(a, p, rng.New(501))
	if err != nil {
		t.Fatal(err)
	}

	// Attacker: superimpose a huge x-gradient so that within every
	// horizontal pair the right RO is always slower after distillation.
	attack := h
	attack.Poly = h.Poly.AddInto(distiller.Plane(0, 1000, 0), nil)

	var groups [][]int
	for y := 0; y < p.Rows; y++ {
		for x := 0; x+1 < p.Cols; x += 2 {
			groups = append(groups, []int{y*p.Cols + x, y*p.Cols + x + 1})
		}
	}
	g, err := PairsToGrouping(a.N(), groups)
	if err != nil {
		t.Fatal(err)
	}
	attack.Grouping = g

	// Predicted stream: residual = f - poly' = residual_orig - 1000x;
	// within each pair the left RO (smaller x) has the larger residual,
	// so label A precedes B -> Kendall bit 0 everywhere.
	sk, _ := sketchFor(p.Code, bitvec.New(StreamLen(&g)))
	attack.Offset = sk.Enroll(rng.New(502))

	got, err := reconstruct(a, p, attack, a.Config().NominalEnv(), a.NewNoise(rng.New(503)))
	if err != nil {
		t.Fatalf("attacker-programmed reconstruction failed: %v", err)
	}
	// All-zero Kendall stream = identity order per pair = compact bit 0.
	if got.Weight() != 0 {
		t.Fatalf("attacker key %s, want all zeros", got)
	}
}

func BenchmarkGroup512(b *testing.B) {
	r := rng.New(1)
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = r.NormScaled(200, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Group(vals, 0.3)
	}
}

func BenchmarkEnroll8x16(b *testing.B) {
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(1))
	src := rng.New(2)
	nm := a.NewNoise(src)
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Enroll(a, p, src, nm, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
