package device

import (
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

func seqParams() SeqPairParams {
	return SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.5,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   20,
	}
}

func TestSeqPairDeviceHonestApp(t *testing.T) {
	d, err := EnrollSeqPairReuse(nil, seqParams(), rng.New(1), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 20; i++ {
		if d.App() {
			ok++
		}
	}
	if ok < 18 {
		t.Fatalf("honest app succeeded only %d/20", ok)
	}
	if d.Queries() != 20 {
		t.Fatalf("queries %d", d.Queries())
	}
}

func TestSeqPairDeviceRejectsMalformedWrites(t *testing.T) {
	d, err := EnrollSeqPairReuse(nil, seqParams(), rng.New(3), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	h := d.ReadHelper()
	bad := h
	bad.Pairs = pairing.SeqPairHelper{Pairs: []pairing.Pair{{A: 0, B: 0}}}
	if err := d.WriteHelper(bad); err == nil {
		t.Error("reused oscillator must be rejected")
	}
	bad2 := h
	bad2.Offset = bitvec.New(3)
	if err := d.WriteHelper(bad2); err == nil {
		t.Error("wrong offset length must be rejected")
	}
}

func TestSeqPairSwapManipulationBehaviour(t *testing.T) {
	// Within-pair swap of exactly one pair: 1 error, within the radius,
	// app still works. Within-pair swaps of t+1 pairs: app fails.
	d, err := EnrollSeqPairReuse(nil, seqParams(), rng.New(5), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	h := d.ReadHelper()
	tcap := d.Code().T()
	if d.NumPairs() < tcap+2 {
		t.Skip("not enough pairs")
	}

	one := d.ReadHelper()
	one.Pairs.Pairs[0] = one.Pairs.Pairs[0].Swapped()
	if err := d.WriteHelper(one); err != nil {
		t.Fatal(err)
	}
	okOne := 0
	for i := 0; i < 10; i++ {
		if d.App() {
			okOne++
		}
	}

	many := d.ReadHelper()
	copy(many.Pairs.Pairs, h.Pairs.Pairs)
	for i := 0; i <= tcap; i++ {
		many.Pairs.Pairs[i] = many.Pairs.Pairs[i].Swapped()
	}
	if err := d.WriteHelper(many); err != nil {
		t.Fatal(err)
	}
	okMany := 0
	for i := 0; i < 10; i++ {
		if d.App() {
			okMany++
		}
	}
	if okOne < 8 {
		t.Errorf("single swap: app worked only %d/10 (should be within radius)", okOne)
	}
	if okMany > 2 {
		t.Errorf("t+1 swaps: app worked %d/10 (should fail)", okMany)
	}
}

func TestTempCoDevice(t *testing.T) {
	p := tempco.Params{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.6,
		TminC:        -20, TmaxC: 80,
		Policy:     tempco.RandomSelection,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps: 25,
	}
	d, err := EnrollTempCoReuse(nil, p, rng.New(7), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 10; i++ {
		if d.App() {
			ok++
		}
	}
	if ok < 8 {
		t.Fatalf("honest app %d/10", ok)
	}
	// Environment change within range keeps it alive.
	d.SetEnvironment(silicon.Environment{TempC: 60, VoltageV: 1.2})
	ok = 0
	for i := 0; i < 10; i++ {
		if d.App() {
			ok++
		}
	}
	if ok < 7 {
		t.Fatalf("warm app %d/10", ok)
	}
	h := d.ReadHelper()
	if err := d.WriteHelper(h); err != nil {
		t.Fatalf("writing back own helper failed: %v", err)
	}
}

func TestGroupBasedDeviceRebinding(t *testing.T) {
	p := groupbased.Params{
		Rows: 8, Cols: 16,
		Degree:       2,
		ThresholdMHz: 0.4,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps:   15,
	}
	d, err := EnrollGroupBasedReuse(nil, p, rng.New(9), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if !d.App() {
		t.Fatal("honest app failed")
	}
	// Write back the same helper: rebinding to the same key keeps the
	// app working.
	if err := d.WriteHelper(d.ReadHelper()); err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 10; i++ {
		if d.App() {
			ok++
		}
	}
	if ok < 8 {
		t.Fatalf("app after rewrite %d/10", ok)
	}
	if !d.TrueKey().Equal(d.TrueKey()) {
		t.Fatal("TrueKey not stable")
	}
}

// TestGroupBasedRejectedWritesLeaveDeviceIntact: the scratch validates
// a written grouping by laying it out, so a rejected write — a grouping
// with an empty group, or a valid new grouping with an offset of the
// wrong length — has overwritten the scratch's layout of the stored
// helper. The device must rebuild it: its outcomes match a twin's that
// never saw the writes, and the NVM is unchanged.
func TestGroupBasedRejectedWritesLeaveDeviceIntact(t *testing.T) {
	p := groupbased.Params{
		Rows: 8, Cols: 16,
		Degree:       2,
		ThresholdMHz: 0.4,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps:   15,
	}
	d, err := EnrollGroupBasedReuse(nil, p, rng.New(9), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := EnrollGroupBasedReuse(nil, p, rng.New(9), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := appTrace(d, 4), appTrace(twin, 4); !tracesEqual(got, want) {
		t.Fatalf("twins differ before the writes: %v vs %v", got, want)
	}
	enrolled := d.ReadHelper()
	gaps := d.ReadHelper()
	for i, id := range gaps.Grouping.Assign {
		gaps.Grouping.Assign[i] = 2 * id
	}
	pairs := d.ReadHelper()
	for i := range pairs.Grouping.Assign {
		pairs.Grouping.Assign[i] = i / 2
	}
	pairs.Offset = bitvec.New(p.Code.N() + 1)
	for _, h := range []groupbased.Helper{gaps, pairs} {
		if err := d.WriteHelper(h); err == nil {
			t.Fatal("malformed helper accepted")
		}
	}
	if d.NVMGeneration() != 0 || !slices.Equal(d.ReadHelper().Grouping.Assign, enrolled.Grouping.Assign) {
		t.Fatal("a rejected write reached the NVM")
	}
	got, want := appTrace(d, 40), appTrace(twin, 40)
	if !tracesEqual(got, want) {
		t.Fatalf("after rejected writes: %v, twin %v", got, want)
	}
	if !slices.Contains(got, true) {
		t.Fatal("no App succeeded; the comparison shows nothing")
	}
}

func TestDistillerPairDeviceModes(t *testing.T) {
	for _, mode := range []PairingMode{MaskedChain, OverlappingChain} {
		p := DistillerPairParams{
			Rows: 4, Cols: 10, // the paper's Fig. 6 array
			Degree:     2,
			Mode:       mode,
			K:          5,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps: 15,
		}
		d, err := EnrollDistillerPairReuse(nil, p, rng.New(11), rng.New(12))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ok := 0
		for i := 0; i < 10; i++ {
			if d.App() {
				ok++
			}
		}
		if ok < 8 {
			t.Fatalf("%v: honest app %d/10", mode, ok)
		}
		if mode == MaskedChain && len(d.ReadHelper().Masking.Selected) == 0 {
			t.Fatalf("%v: no masking selections", mode)
		}
		if mode == OverlappingChain && len(d.BasePairs()) != 39 {
			t.Fatalf("%v: %d base pairs, want 39", mode, len(d.BasePairs()))
		}
	}
}

// TestDistillerPairFirstAppReusesEnrolledSurface pins enrollment's
// evaluation of the distiller surface into the device's grid: the
// first App finds it unchanged (Grid.Eval reports no change), and the
// App outcomes equal those of a twin whose grid is dropped after
// enrollment, so that its first App evaluates the surface again. Each
// device is enrolled into the previous one's carcass, the pool path.
func TestDistillerPairFirstAppReusesEnrolledSurface(t *testing.T) {
	edge := silicon.Environment{TempC: 95, VoltageV: 1.2}
	for _, mode := range []PairingMode{MaskedChain, OverlappingChain} {
		p := DistillerPairParams{
			Rows: 4, Cols: 10,
			Degree:     2,
			Mode:       mode,
			K:          2,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps: 15,
		}
		var pooled *DistillerPairDevice
		outcomes := map[bool]int{}
		for seed := uint64(1); seed <= 8; seed++ {
			var err error
			pooled, err = EnrollDistillerPairReuse(pooled, p, rng.New(40+seed), rng.New(50+seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, changed := pooled.scratch.grid.Eval(pooled.nvm.Poly, p.Rows, p.Cols); changed {
				t.Fatalf("%v seed %d: the first App would evaluate the enrolled surface again", mode, seed)
			}
			twin, err := EnrollDistillerPairReuse(nil, p, rng.New(40+seed), rng.New(50+seed))
			if err != nil {
				t.Fatal(err)
			}
			twin.scratch.grid = distiller.Grid{}
			pooled.SetEnvironment(edge)
			twin.SetEnvironment(edge)
			got, want := appTrace(pooled, 16), appTrace(twin, 16)
			if !tracesEqual(got, want) {
				t.Fatalf("%v seed %d: App outcomes %v, with the surface evaluated again %v", mode, seed, got, want)
			}
			for _, ok := range got {
				outcomes[ok]++
			}
		}
		if outcomes[true] == 0 || outcomes[false] == 0 {
			t.Fatalf("%v: outcomes %v; the comparison needs both", mode, outcomes)
		}
	}
}

func TestFuzzyDeviceResistsManipulationSideChannel(t *testing.T) {
	p := FuzzyParams{
		Rows: 4, Cols: 10,
		Extractor:  fuzzy.Params{Code: ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})},
		EnrollReps: 20,
	}
	d, err := EnrollFuzzy(p, rng.New(13), rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	if ok := d.App(); !ok {
		t.Fatal("honest app failed")
	}
	// An in-radius helper manipulation makes the app fail ALWAYS,
	// independent of response bit values (key becomes hash of shifted
	// response).
	h := d.ReadHelper()
	h.W.Flip(0)
	if err := d.WriteHelper(h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if d.App() {
			t.Fatal("manipulated fuzzy helper still derived the enrolled key")
		}
	}
}
