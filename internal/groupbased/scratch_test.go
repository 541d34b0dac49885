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
	order, at := src.Perm(n), 0
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

// checkLayout compares the scratch's member lists, measurement set and
// lengths against the Grouping methods they replace.
func checkLayout(t *testing.T, sc *Scratch, g *Grouping) {
	t.Helper()
	members := g.Members()
	if sc.numGroups() != len(members) {
		t.Fatalf("scratch has %d groups, Members %d", sc.numGroups(), len(members))
	}
	var idxs []int
	for id, group := range members {
		if !slices.Equal(sc.group(id), group) {
			t.Fatalf("group %d: scratch members %v, Members %v", id, sc.group(id), group)
		}
		if len(group) >= 2 {
			idxs = append(idxs, group...)
		}
	}
	slices.Sort(idxs)
	if !slices.Equal(sc.idxs, idxs) {
		t.Fatalf("scratch idxs %v, want %v", sc.idxs, idxs)
	}
	if sc.streamLen != StreamLen(g) || sc.keyLen != KeyLen(g) {
		t.Fatalf("scratch lengths stream %d key %d, want %d and %d", sc.streamLen, sc.keyLen, StreamLen(g), KeyLen(g))
	}
}

// TestScratchMatchesGroupingReference drives one device scratch through
// random groupings with group sizes 1..6. The scratch layout must equal
// the Grouping methods, and every Reconstruct — offsets bound to the
// grouping, some with a block corrupted past t — must return the key or
// the error of the KendallStream → ecc.Reproduce → PackKey reference on
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
	f := a.MeasureAveragedInto(make([]float64, a.N()), make([]float64, 2*a.N()), env, nm, p.EnrollReps)
	enrolled := distiller.Distill(p.Rows, p.Cols, f, h.Poly)
	src := rng.New(603)
	var sc Scratch
	const trials, queries = 60, 3
	failures := 0
	for trial := 0; trial < trials; trial++ {
		g := randomGrouping(src, a.N(), 6)
		padded, blocks := padToBlocks(KendallStream(&g, enrolled), p.Code)
		block := ecc.NewBlock(p.Code, blocks)
		h.Grouping = g
		h.Offset = ecc.EnrollOffset(block, padded, src).W
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
			stream, _ := padToBlocks(KendallStream(&g, sc.resid), p.Code)
			var wantKey bitvec.Vector
			wantErr := error(ErrReconstructFailed)
			if corrected, _, ok := ecc.Reproduce(block, ecc.Offset{W: h.Offset}, stream); ok {
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
