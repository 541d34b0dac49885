package groupbased

import (
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// shapedGrouping places a random permutation of n oscillators into
// groups of the given sizes, in id order, and the rest into singletons.
func shapedGrouping(src *rng.Source, n int, sizes ...int) Grouping {
	g := Grouping{Assign: make([]int, n)}
	order, at := make([]int, n), 0
	src.Perm(order)
	for id, size := range sizes {
		for _, ro := range order[at : at+size] {
			g.Assign[ro] = id
		}
		at += size
	}
	for i, ro := range order[at:] {
		g.Assign[ro] = len(sizes) + i
	}
	return g
}

// randomGrouping partitions n oscillators into groups of 1..maxSize
// members.
func randomGrouping(src *rng.Source, n, maxSize int) Grouping {
	var sizes []int
	for left := n; left > 0; {
		size := min(1+src.Intn(maxSize), left)
		sizes = append(sizes, size)
		left -= size
	}
	return shapedGrouping(src, n, sizes...)
}

// pairsGrouping is the attacker's shape: groups 0..p-1 of two members
// followed by singletons.
func pairsGrouping(src *rng.Source, n, p int) Grouping {
	return shapedGrouping(src, n, slices.Repeat([]int{2}, p)...)
}

// checkLayout compares the scratch's member lists and lengths against
// the Grouping methods they replace.
func checkLayout(t *testing.T, sc *Scratch, g *Grouping) {
	t.Helper()
	members := g.Members()
	if sc.numGroups() != len(members) {
		t.Fatalf("scratch has %d groups, Members %d", sc.numGroups(), len(members))
	}
	for id, group := range members {
		if !slices.Equal(sc.group(id), group) {
			t.Fatalf("group %d: scratch members %v, Members %v", id, sc.group(id), group)
		}
	}
	if sc.streamLen != StreamLen(g) || sc.keyLen != KeyLen(g) {
		t.Fatalf("scratch lengths stream %d key %d, want %d and %d", sc.streamLen, sc.keyLen, StreamLen(g), KeyLen(g))
	}
}

// TestScratchMatchesGroupingReference drives one device scratch through
// random groupings with group sizes 1..6. The scratch layout must equal
// the Grouping methods, and every Reconstruct — offsets bound to the
// grouping, some with a block corrupted past t — must return the key or
// the error of the KendallStream → ecc.Sketch → PackKey reference on
// the residuals it measured.
func TestScratchMatchesGroupingReference(t *testing.T) {
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(600))
	h, _, err := enroll(a, p, rng.New(601))
	if err != nil {
		t.Fatal(err)
	}
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(602))
	f := a.MeasureAveraged(env, nm, p.EnrollReps)
	enrolled := distiller.Distill(p.Rows, p.Cols, f, h.Poly)
	src := rng.New(603)
	var sc Scratch
	const trials, queries = 60, 3
	failures := 0
	for trial := 0; trial < trials; trial++ {
		g := randomGrouping(src, a.N(), 6)
		sk, _ := sketchFor(p.Code, KendallStream(&g, enrolled))
		h.Grouping = g
		h.Offset = sk.Enroll(src)
		if trial%3 == 2 {
			for i := 0; i <= p.Code.T(); i++ {
				h.Offset.Flip(src.Intn(p.Code.N()))
			}
		}
		sc.Invalidate()
		if err := Prepare(a, p, &h, &sc); err != nil {
			t.Fatal(err)
		}
		checkLayout(t, &sc, &g)
		for range queries {
			key, err := Reconstruct(a, p, &h, env, nm, &sc)
			ref, _ := sketchFor(p.Code, KendallStream(&g, sc.resid))
			var wantKey bitvec.Vector
			wantErr := error(ErrReconstructFailed)
			if corrected, _, ok := ref.Reproduce(h.Offset); ok {
				wantKey, wantErr = PackKey(&g, corrected)
			}
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("trial %d: err %v, reference %v", trial, err, wantErr)
			}
			if err == nil && !key.Equal(wantKey) {
				t.Fatalf("trial %d: key %s, reference %s", trial, key, wantKey)
			}
			if err != nil {
				failures++
			}
		}
	}
	if failures == 0 || failures == trials*queries {
		t.Fatalf("%d of %d reconstructions failed: both outcomes must be exercised", failures, trials*queries)
	}
}

// TestScratchRejectsMalformedGroupingLikeValidate checks that the folded
// validation reports Validate's exact error, and that a failed layout
// leaves nothing a later valid grouping could inherit.
func TestScratchRejectsMalformedGroupingLikeValidate(t *testing.T) {
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(700))
	h, _, err := enroll(a, p, rng.New(701))
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	valid := h.Grouping
	with := func(edit func(assign []int)) Grouping {
		g := Grouping{Assign: slices.Clone(valid.Assign)}
		edit(g.Assign)
		return g
	}
	cases := map[string]Grouping{
		"short":    {Assign: make([]int, n-1)},
		"long":     {Assign: make([]int, n+1)},
		"empty":    {Assign: slices.Repeat([]int{-1}, n)},
		"negative": with(func(as []int) { as[5] = -3 }),
		"gap":      with(func(as []int) { as[0] = valid.NumGroups() + 1 }),
		"gap+neg":  with(func(as []int) { as[0] = valid.NumGroups() + 1; as[9] = -1 }),
		"huge id":  with(func(as []int) { as[3] = 65535 }),
	}
	var sc Scratch
	for name, g := range cases {
		want := g.Validate(n)
		if want == nil {
			t.Fatalf("%s: Validate accepts the case", name)
		}
		bad := h
		bad.Grouping = g
		sc.Invalidate()
		if err := Prepare(a, p, &bad, &sc); err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: Prepare err %v, Validate %v", name, err, want)
		}
		sc.Invalidate()
		if err := Prepare(a, p, &h, &sc); err != nil {
			t.Fatal(err)
		}
		checkLayout(t, &sc, &h.Grouping)
	}
}

// TestPackKeyOfPairsIsTheStream pins the identity the attacker's
// closed-form pair streams rely on: for groups 0..p-1 of two members
// plus singletons, the packed key is the stream's first p bits.
func TestPackKeyOfPairsIsTheStream(t *testing.T) {
	src := rng.New(800)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.Intn(60)
		pairs := 1 + src.Intn(n/2)
		g := pairsGrouping(src, n, pairs)
		s := bitvec.New(pairs + src.Intn(8))
		for i := 0; i < s.Len(); i++ {
			s.Set(i, src.Bool())
		}
		key, err := PackKey(&g, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.Slice(0, pairs); !key.Equal(want) {
			t.Fatalf("n=%d p=%d: key %s, stream prefix %s", n, pairs, key, want)
		}
	}
}

// TestPrepareNewGroupingAllocFree fences the allocation-free refresh: a
// Prepare that lays out a new grouping — alternating pair-only and mixed
// groupings of different key lengths, as an attack's pair sweep does —
// allocates nothing once the scratch has grown.
func TestPrepareNewGroupingAllocFree(t *testing.T) {
	p := testParams()
	a := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(900))
	h, _, err := enroll(a, p, rng.New(901))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(902)
	groupings := [2]Grouping{
		pairsGrouping(src, a.N(), 20),
		shapedGrouping(src, a.N(), 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
	}
	if KeyLen(&groupings[0]) == KeyLen(&groupings[1]) {
		t.Fatal("the groupings must differ in key length")
	}
	var sc Scratch
	i := 0
	prepare := func() {
		h.Grouping = groupings[i%2]
		i++
		sc.Invalidate()
		if err := Prepare(a, p, &h, &sc); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		prepare()
	}
	if allocs := testing.AllocsPerRun(50, prepare); allocs != 0 {
		t.Fatalf("Prepare on a new grouping allocates %.1f/op, want 0", allocs)
	}
}

// sketchFor returns a fresh sketch over code holding stream, and the
// zero-padded stream it holds.
func sketchFor(code ecc.Code, stream bitvec.Vector) (*ecc.Sketch, bitvec.Vector) {
	sk := new(ecc.Sketch)
	sk.Size(code, stream.Len())
	padded := sk.Stream()
	padded.PutAt(0, stream)
	return sk, padded
}

// noisyReconstruct is the reference Reconstruct: every oscillator
// measured with noise, the residuals distilled, and the Grouping-method
// pipeline KendallStream → ecc.Sketch → PackKey, in a fresh sketch. It
// also returns the padded stream before error correction.
func noisyReconstruct(a *silicon.Array, p Params, h *Helper, env silicon.Environment, nm *silicon.Noise) (bitvec.Vector, bitvec.Vector, error) {
	f := a.MeasureIntoWith(make([]float64, a.N()), env, nm)
	resid := distiller.Distill(p.Rows, p.Cols, f, h.Poly)
	sk, stream := sketchFor(p.Code, KendallStream(&h.Grouping, resid))
	corrected, _, ok := sk.Reproduce(h.Offset)
	if !ok {
		return bitvec.Vector{}, stream, ErrReconstructFailed
	}
	key, err := PackKey(&h.Grouping, corrected)
	return key, stream, err
}

// TestReconstructMatchesNoisyReference checks that reading only the
// oscillators whose noise can change an order (silicon.Readout) is
// exact: at σ = 0.05, 0.3 and 0.5, across temperatures, random
// groupings of up to 8 members and offsets pushed past the ECC radius,
// Reconstruct returns the key and error of a reconstruction that
// measures every oscillator with the same noise, from the same stream
// before error correction.
func TestReconstructMatchesNoisyReference(t *testing.T) {
	p := testParams()
	noisy, quiet, failures, queries := 0, 0, 0, 0
	for _, sigma := range []float64{0.05, 0.3, 0.5} {
		cfg := silicon.DefaultConfig(p.Rows, p.Cols)
		cfg.NoiseSigmaMHz = sigma
		a := silicon.NewArray(cfg, rng.New(1000))
		h, _, err := enroll(a, p, rng.New(1001))
		if err != nil {
			t.Fatal(err)
		}
		enrolled := distiller.Distill(p.Rows, p.Cols, a.TrueFreqInto(make([]float64, a.N()), cfg.NominalEnv()), h.Poly)
		nm := a.NewNoise(rng.New(1002))
		src := rng.New(1003)
		var sc Scratch
		for trial := 0; trial < 40; trial++ {
			if trial > 0 {
				g := randomGrouping(src, a.N(), 6)
				sk, _ := sketchFor(p.Code, KendallStream(&g, enrolled))
				h.Grouping = g
				h.Offset = sk.Enroll(src)
				if trial%4 == 3 {
					for i := 0; i <= p.Code.T(); i++ {
						h.Offset.Flip(src.Intn(p.Code.N()))
					}
				}
				sc.Invalidate()
			}
			env := cfg.NominalEnv()
			env.TempC += float64(src.Intn(20)) - 10
			for range 5 {
				ref := *nm
				key, err := Reconstruct(a, p, &h, env, nm, &sc)
				wantKey, wantStream, wantErr := noisyReconstruct(a, p, &h, env, &ref)
				if !sc.stream.Equal(wantStream) {
					t.Fatalf("σ=%v trial %d: stream %s, reference %s", sigma, trial, sc.stream, wantStream)
				}
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("σ=%v trial %d: err %v, reference %v", sigma, trial, err, wantErr)
				}
				if err == nil && !key.Equal(wantKey) {
					t.Fatalf("σ=%v trial %d: key %s, reference %s", sigma, trial, key, wantKey)
				}
				if err != nil {
					failures++
				}
				queries++
				noisy += sc.ro.Noisy()
				for _, g := range h.Grouping.Members() {
					if len(g) >= 2 {
						quiet += len(g)
					}
				}
				quiet -= sc.ro.Noisy()
			}
		}
	}
	if noisy == 0 || quiet == 0 || failures == 0 || failures == queries {
		t.Fatalf("%d noisy and %d quiet reads, %d of %d failed: every path must be exercised", noisy, quiet, failures, queries)
	}
}

// TestEnrollSeedsScratch pins enrollment into a reconstruction scratch:
// the enrolled surface is already in the scratch's grid (the first
// Reconstruct's Grid.Eval reports no change), and every Reconstruct
// with the enrolled helper returns what one with a fresh scratch
// returns for the same sweep. The scratch is reused across enrollments
// of re-drawn silicon under one array pointer, the device-pool path.
func TestEnrollSeedsScratch(t *testing.T) {
	p := testParams()
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	edge := silicon.Environment{TempC: 90, VoltageV: 1.1}
	var a *silicon.Array
	var sc Scratch
	failed, succeeded := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		a = a.Remanufactured(cfg, rng.New(700+seed))
		src := rng.New(800 + seed)
		h, key, err := Enroll(a, p, src, a.NewNoise(src), &sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, changed := sc.grid.Eval(h.Poly, p.Rows, p.Cols); changed {
			t.Fatalf("seed %d: enrollment left the enrolled surface out of the scratch grid", seed)
		}
		nm := a.NewNoise(rng.New(900 + seed))
		// Queries alternate nominal and edge, starting and ending at
		// nominal: the next seed's first query reads the environment of
		// this seed's last, where a readout holding the previous
		// silicon's frequencies would still read them.
		for q := 0; q < 15; q++ {
			env := a.Config().NominalEnv()
			if q%2 == 1 {
				env = edge
			}
			twin := *nm
			got, gotErr := Reconstruct(a, p, &h, env, nm, &sc)
			want, wantErr := Reconstruct(a, p, &h, env, &twin, new(Scratch))
			if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !got.Equal(want)) {
				t.Fatalf("seed %d query %d: enrolled scratch gives %v/%v, fresh scratch %v/%v", seed, q, got, gotErr, want, wantErr)
			}
			if gotErr == nil && got.Equal(key) {
				succeeded++
			} else {
				failed++
			}
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("%d reconstructions recovered the key and %d did not; the comparison needs both", succeeded, failed)
	}
}
