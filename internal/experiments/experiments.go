// Package experiments implements the reproduction of every table and
// figure of the paper's evaluation (see the README's "Experiment ↔ paper
// mapping" for the experiment index). Each experiment is a serial, pure
// function from a seed (and a few shape parameters) to a structured
// result, so the bench harness in bench_test.go, the cmd/puf-bench
// generator and the campaign tasks all draw from the same code. R1 is
// not a function here: it is the attack-success campaign task.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/device"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/stats"
	"repro/internal/tempco"
	"repro/internal/transcript"
)

// ---------------------------------------------------------------- E1 --

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	Order   string // e.g. "ABCD"
	Compact string
	Kendall string
}

// TableI regenerates the paper's Table I from the coding primitives: all
// 24 orders of four ROs with their compact and Kendall codings.
func TableI() []TableIRow {
	rows := make([]TableIRow, 0, 24)
	for _, o := range perm.AllOrders(4) {
		labels := make([]byte, 4)
		for pos, l := range o {
			labels[pos] = byte('A' + l)
		}
		rows = append(rows, TableIRow{
			Order:   string(labels),
			Compact: perm.CompactEncode(o).String(),
			Kendall: perm.KendallEncode(o).String(),
		})
	}
	return rows
}

// ---------------------------------------------------------------- E2 --

// Fig2Result is the variance decomposition of the frequency topology.
type Fig2Result struct {
	Rows, Cols   int
	RawVariance  float64 // variance of the measured f(x,y)
	SystVariance float64 // variance of the true systematic component
	RandVariance float64 // variance of the true random component
	ResidualVar  float64 // variance after degree-2 distillation
}

// Fig2 reproduces the frequency-topology decomposition of the paper's
// Fig. 2: a 16x32 array (the size of the DAC 2013 experiments) with a
// strong systematic trend, fitted and distilled.
func Fig2(seed uint64) (Fig2Result, error) {
	cfg := silicon.DefaultConfig(16, 32)
	cfg.GradientXMHz = 8
	cfg.GradientYMHz = 4
	cfg.BowlMHz = 3
	arr := silicon.NewArray(cfg, rng.New(seed))
	src := rng.New(seed + 1)
	f := arr.MeasureAveraged(cfg.NominalEnv(), arr.NewNoise(src), 9)
	fit, err := distiller.Fit(cfg.Rows, cfg.Cols, f, 2)
	if err != nil {
		return Fig2Result{}, err
	}
	resid := distiller.Distill(cfg.Rows, cfg.Cols, f, fit)
	syst := make([]float64, arr.N())
	rand := make([]float64, arr.N())
	for i := range syst {
		syst[i] = arr.SystematicComponent(i)
		rand[i] = arr.RandomComponent(i)
	}
	return Fig2Result{
		Rows: cfg.Rows, Cols: cfg.Cols,
		RawVariance:  distiller.Variance(f),
		SystVariance: distiller.Variance(syst),
		RandVariance: distiller.Variance(rand),
		ResidualVar:  distiller.Variance(resid),
	}, nil
}

// ---------------------------------------------------------------- E3 --

// Fig3Row is the pair classification at one threshold.
type Fig3Row struct {
	ThresholdMHz    float64
	Good, Bad, Coop int
	KeyBits         int // good + cooperating
}

// Fig3 reproduces the good/bad/cooperating classification of the paper's
// Fig. 3 as a function of the discrepancy threshold ∆fth.
func Fig3(seed uint64, thresholds []float64) ([]Fig3Row, error) {
	out := make([]Fig3Row, 0, len(thresholds))
	for _, th := range thresholds {
		p := tempco.Params{
			Rows: 8, Cols: 16,
			ThresholdMHz: th,
			TminC:        -20, TmaxC: 80,
			Policy:     tempco.RandomSelection,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
			EnrollReps: 25,
		}
		cfg := silicon.DefaultConfig(p.Rows, p.Cols)
		cfg.TempCoefSigmaMHzPerC = 0.03
		arr := silicon.NewArray(cfg, rng.New(seed))
		src := rng.New(seed + 1)
		h, _, err := tempco.Enroll(arr, p, src, arr.NewNoise(src))
		if err != nil {
			return nil, err
		}
		good, bad, coop := tempco.CountClasses(h)
		out = append(out, Fig3Row{
			ThresholdMHz: th,
			Good:         good, Bad: bad, Coop: coop,
			KeyBits: good + coop,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------- E4 --

// Fig5Result reproduces the distinguishing PDFs of the paper's Fig. 5:
// the distribution of the error count at the ECC input under the nominal
// helper, under the correct hypothesis (common offset only) and under the
// wrong hypothesis (offset plus the manipulation-induced error pair).
type Fig5Result struct {
	T           int
	Nominal     *stats.Histogram
	H0          *stats.Histogram // correct hypothesis: offset only
	H1          *stats.Histogram // wrong hypothesis: offset + 2 errors
	FailNominal float64          // P(#errors > t) per histogram
	FailH0      float64
	FailH1      float64
	TVDistance  float64 // distinguishability of H0 vs H1 in one query
	// FixedSamples is the fixed-sample query count that separates the
	// two failure rates at 1% error; 0 when they do not separate
	// (|FailH1 - FailH0| <= 1e-6).
	FixedSamples int
}

// Fig5 builds the three PDFs empirically on a sequential-pairing device:
// the nominal arm uses the honest helper; H0 injects t-1 within-pair
// swaps (the common offset, leaving one error of headroom so failures
// stay probabilistic); H1 additionally swaps the positions of two pairs
// with differing response bits.
func Fig5(seed uint64, samples int) (Fig5Result, error) {
	code := ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})
	p := device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.3, // deliberately tight: some marginal bits
		Policy:       pairing.RandomizedStorage,
		Code:         code,
		EnrollReps:   20,
	}
	srcMfg, srcRun := rng.New(seed), rng.New(seed+1)
	// Raise the measurement noise so the error-count PDFs have visible
	// spread, as in the figure (three overlapping bell-like shapes
	// rather than three spikes).
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.NoiseSigmaMHz = 1.2
	arr := silicon.NewArray(cfg, srcMfg)
	env := cfg.NominalEnv()
	f := arr.MeasureAveraged(env, arr.NewNoise(srcRun), p.EnrollReps)
	helper := pairing.EnrollSeqPair(f, p.ThresholdMHz, p.Policy, srcRun)
	enrolled := pairing.Responses(f, helper.Pairs)
	m := len(helper.Pairs)
	if m < code.T()+3 {
		return Fig5Result{}, fmt.Errorf("experiments: too few pairs (%d)", m)
	}
	t := code.T()

	// Find two pairs with differing bits for the H1 manipulation.
	swapA, swapB := -1, -1
	for j := 1; j < m && j < code.N(); j++ {
		if enrolled.Get(j) != enrolled.Get(0) {
			swapA, swapB = 0, j
			break
		}
	}
	if swapA == -1 {
		return Fig5Result{}, fmt.Errorf("experiments: all response bits equal")
	}

	// Offset injections: t-1 within-pair swaps avoiding the swap pair.
	var injected []int
	for pos := 0; pos < m && len(injected) < t-1; pos++ {
		if pos != swapA && pos != swapB {
			injected = append(injected, pos)
		}
	}

	noisier := arr.NewNoise(rng.New(seed + 2))
	fNow := make([]float64, arr.N())
	countErrors := func(pairsList []pairing.Pair, inverted []int) int {
		arr.MeasureIntoWith(fNow, env, noisier)
		resp := pairing.Responses(fNow, pairsList)
		for _, pos := range inverted {
			resp.Flip(pos)
		}
		return resp.HammingDistance(enrolled)
	}

	res := Fig5Result{
		T:       t,
		Nominal: stats.NewHistogram(),
		H0:      stats.NewHistogram(),
		H1:      stats.NewHistogram(),
	}
	swapped := append([]pairing.Pair(nil), helper.Pairs...)
	swapped[swapA], swapped[swapB] = swapped[swapB], swapped[swapA]
	for i := 0; i < samples; i++ {
		res.Nominal.Add(countErrors(helper.Pairs, nil))
		res.H0.Add(countErrors(helper.Pairs, injected))
		res.H1.Add(countErrors(swapped, injected))
	}
	res.FailNominal = res.Nominal.TailP(t)
	res.FailH0 = res.H0.TailP(t)
	res.FailH1 = res.H1.TailP(t)
	res.TVDistance = stats.TotalVariationDistance(res.H0, res.H1)
	p0, p1 := res.FailH0, res.FailH1
	if p0 > p1 {
		p0, p1 = p1, p0
	}
	if p1-p0 > 1e-6 {
		res.FixedSamples = stats.RequiredSamplesTwoProportions(p0, p1, 0.01, 0.01)
	}
	return res, nil
}

// ----------------------------------------------------------- E5–E10 --

// RunAttackPooled is transcript.Run with a campaign device pool:
// enrollment scratch (device carcass, ECC code tables) is adopted from
// the pool slot keyed by the spec's enrollment fingerprint and returned
// to it afterwards. A nil pool degrades to transcript.Run. Transcripts
// are bit-identical either way — the pool only recycles allocations.
func RunAttackPooled(ctx context.Context, spec transcript.Spec, pool *campaign.Pool) (transcript.Transcript, error) {
	// A typed-nil *campaign.Pool must not become a non-nil Cache
	// interface, or transcript.RunWith would call methods on it.
	var cache transcript.Cache
	if pool != nil {
		cache = pool
	}
	return transcript.RunWith(ctx, spec, cache)
}

// --------------------------------------------------------------- E11 --

// EntropyRow is the entropy accounting at one grouping threshold.
type EntropyRow struct {
	ThresholdMHz float64
	Groups       int
	EntropyBits  float64 // sum log2(|Gj|!)
	KeyBits      int
	TotalBits    float64 // log2(N!) upper bound for the array
}

// EntropyAccounting reproduces the paper's §II and §V-B entropy figures
// as a function of the grouping threshold.
func EntropyAccounting(seed uint64, thresholds []float64) []EntropyRow {
	cfg := silicon.DefaultConfig(8, 16)
	arr := silicon.NewArray(cfg, rng.New(seed))
	src := rng.New(seed + 1)
	f := arr.MeasureAveraged(cfg.NominalEnv(), arr.NewNoise(src), 9)
	poly, err := distiller.Fit(cfg.Rows, cfg.Cols, f, 2)
	if err != nil {
		return nil
	}
	resid := distiller.Distill(cfg.Rows, cfg.Cols, f, poly)
	total := perm.Log2Factorial(arr.N())
	out := make([]EntropyRow, 0, len(thresholds))
	for _, th := range thresholds {
		g := groupbased.GroupLimited(resid, th, 16)
		out = append(out, EntropyRow{
			ThresholdMHz: th,
			Groups:       g.NumGroups(),
			EntropyBits:  groupbased.Entropy(&g),
			KeyBits:      groupbased.KeyLen(&g),
			TotalBits:    total,
		})
	}
	return out
}

// --------------------------------------------------------------- E12 --

// FuzzyResistanceResult quantifies the absence of a manipulation side
// channel in the fuzzy extractor versus its presence in the LISA
// construction: the attacker's single-manipulation advantage is the
// failure-rate difference between devices whose targeted response bits
// are equal versus different.
type FuzzyResistanceResult struct {
	// FuzzyAdvantage: |P(fail | bits differ) - P(fail | bits equal)| for
	// the fuzzy extractor under a fixed helper-delta manipulation.
	FuzzyAdvantage float64
	// SeqPairAdvantage: the same statistic for the pair-position swap
	// on the LISA device (the attack's signal).
	SeqPairAdvantage float64
	Queries          int
}

// FuzzyResistance runs experiment E12.
func FuzzyResistance(seed uint64, queries int) (FuzzyResistanceResult, error) {
	// --- LISA arm: swap two pairs, group devices by whether the bits
	// differ, measure rates.
	var sameRates, diffRates []float64
	var fuzzySame, fuzzyDiff []float64
	srcSeed := seed
	for len(sameRates) == 0 || len(diffRates) == 0 || len(fuzzySame) == 0 || len(fuzzyDiff) == 0 {
		srcSeed += 2
		if srcSeed > seed+100 {
			return FuzzyResistanceResult{}, fmt.Errorf("experiments: could not populate both bit classes")
		}
		d, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.8,
			Policy:       pairing.RandomizedStorage,
			Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps:   20,
		}, rng.New(srcSeed), rng.New(srcSeed+1))
		if err != nil {
			return FuzzyResistanceResult{}, err
		}
		truth := d.TrueKey()
		// Common offset t, then swap pairs 0 and 1, on ReadHelper's copy.
		manip := d.ReadHelper()
		pairs := manip.Pairs.Pairs
		tcap := d.Code().T()
		inj := 0
		for pos := 2; pos < len(pairs) && inj < tcap; pos++ {
			pairs[pos] = pairs[pos].Swapped()
			inj++
		}
		pairs[0], pairs[1] = pairs[1], pairs[0]
		if err := d.WriteHelper(manip); err != nil {
			return FuzzyResistanceResult{}, err
		}
		rate := attack.EstimateFailureRate(func() bool { return !d.App() }, queries)
		if truth.Get(0) != truth.Get(1) {
			diffRates = append(diffRates, rate)
		} else {
			sameRates = append(sameRates, rate)
		}

		// --- Fuzzy arm: flip one helper bit; the targeted "hypothesis"
		// is the device's response bit 0 — rates must not depend on it.
		fd, err := device.EnrollFuzzy(device.FuzzyParams{
			Rows: 8, Cols: 16,
			Extractor:  fuzzyParamsForE12(),
			EnrollReps: 20,
		}, rng.New(srcSeed+500), rng.New(srcSeed+501))
		if err != nil {
			return FuzzyResistanceResult{}, err
		}
		fh := fd.ReadHelper()
		fh.W.Flip(0)
		if err := fd.WriteHelper(fh); err != nil {
			return FuzzyResistanceResult{}, err
		}
		frate := attack.EstimateFailureRate(func() bool { return !fd.App() }, queries)
		// Class by a response bit the attacker would target (bit 0 of
		// the underlying chain response, read from ground truth).
		if fuzzyBitZero(srcSeed + 500) {
			fuzzyDiff = append(fuzzyDiff, frate)
		} else {
			fuzzySame = append(fuzzySame, frate)
		}
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	adv := avg(diffRates) - avg(sameRates)
	if adv < 0 {
		adv = -adv
	}
	fadv := avg(fuzzyDiff) - avg(fuzzySame)
	if fadv < 0 {
		fadv = -fadv
	}
	return FuzzyResistanceResult{
		FuzzyAdvantage:   fadv,
		SeqPairAdvantage: adv,
		Queries:          queries * (len(sameRates) + len(diffRates) + len(fuzzySame) + len(fuzzyDiff)),
	}, nil
}

// fuzzyBitZero reproduces the first response bit of the fuzzy device
// manufactured from the given seed (ground truth for classing).
func fuzzyBitZero(seed uint64) bool {
	arr := silicon.NewArray(silicon.DefaultConfig(8, 16), rng.New(seed))
	pairs := pairing.ChainPairs(8, 16, false)
	env := arr.Config().NominalEnv()
	return arr.TrueFreq(pairs[0].A, env) > arr.TrueFreq(pairs[0].B, env)
}

func fuzzyParamsForE12() fuzzy.Params {
	return fuzzy.Params{Code: ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})}
}

// ------------------------------------------------------- ablation A1 --

// StorageLeakage quantifies the §VII-C remark: with sorted storage every
// enrolled bit is 1 (full direct leakage); randomized storage carries no
// information.
type StorageLeakage struct {
	SortedOnesFraction     float64
	RandomizedOnesFraction float64
}

// AblationStoragePolicy measures the direct helper leakage of the two
// storage policies over `devices` devices derived from seed.
func AblationStoragePolicy(ctx context.Context, seed uint64, devices int) (StorageLeakage, error) {
	var res StorageLeakage
	var sortedOnes, sortedTotal, randOnes, randTotal int
	for i := 0; i < devices; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		s := seed + uint64(i)*7
		arr := silicon.NewArray(silicon.DefaultConfig(8, 16), rng.New(s))
		src := rng.New(s + 1)
		f := arr.MeasureAveraged(arr.Config().NominalEnv(), arr.NewNoise(src), 9)
		rs := pairing.Responses(f, pairing.EnrollSeqPair(f, 0.8, pairing.SortedStorage, src).Pairs)
		rr := pairing.Responses(f, pairing.EnrollSeqPair(f, 0.8, pairing.RandomizedStorage, src).Pairs)
		sortedOnes += rs.Weight()
		sortedTotal += rs.Len()
		randOnes += rr.Weight()
		randTotal += rr.Len()
	}
	if sortedTotal == 0 || randTotal == 0 {
		return res, fmt.Errorf("experiments: no pairs enrolled")
	}
	res.SortedOnesFraction = float64(sortedOnes) / float64(sortedTotal)
	res.RandomizedOnesFraction = float64(randOnes) / float64(randTotal)
	return res, nil
}

// ------------------------------------------------------- ablation A2 --

// StrategyCost compares the oracle cost of the sequential and
// fixed-sample distinguishers on the same attack.
type StrategyCost struct {
	SequentialQueries  int
	FixedSampleQueries int
	BothRecovered      bool
}

// seqPairSpec is the canonical expurgated sequential-pairing device the
// A2 and A4 ablations attack: the same device as the seqpair goldens.
func seqPairSpec(seed uint64) transcript.Spec {
	return transcript.Spec{Attack: "seqpair", Seed: seed, Expurgate: true}
}

// AblationStrategy runs the seqpair attack twice on identically
// manufactured devices, once per strategy.
func AblationStrategy(ctx context.Context, seed uint64) (StrategyCost, error) {
	run := func(dist attack.Distinguisher) (int, bool, error) {
		target, truth, err := transcript.Enroll(seqPairSpec(seed), nil)
		if err != nil {
			return 0, false, err
		}
		res, err := attack.Run(ctx, "seqpair", target, attack.Options{Dist: dist})
		if err != nil {
			return 0, false, err
		}
		return res.Queries, res.Key.Equal(truth), nil
	}
	seqQ, seqOK, err := run(attack.DefaultDistinguisher())
	if err != nil {
		return StrategyCost{}, err
	}
	fixQ, fixOK, err := run(attack.Distinguisher{Strategy: attack.FixedSample, Queries: 10})
	if err != nil {
		return StrategyCost{}, err
	}
	return StrategyCost{
		SequentialQueries:  seqQ,
		FixedSampleQueries: fixQ,
		BothRecovered:      seqOK && fixOK,
	}, nil
}

// ------------------------------------------------------- ablation A4 --

// OffsetSizeRow measures the failure-rate separation and attack query
// cost at one injected-offset size — the "common offset" knob of Fig. 5.
type OffsetSizeRow struct {
	InjectErrors int
	PNominal     float64 // failure rate under the correct hypothesis
	PElevated    float64 // failure rate one error beyond
	Queries      int     // full-attack oracle cost at this offset
	Recovered    bool
}

// AblationOffsetSize sweeps the common offset from 1 to the code radius
// on the sequential-pairing attack. Below t the swap's extra errors stay
// inside the correction radius and the rates collapse; at t the single
// extra error becomes fully visible. Each level attacks a fresh copy of
// the same device.
func AblationOffsetSize(ctx context.Context, seed uint64) ([]OffsetSizeRow, error) {
	var out []OffsetSizeRow
	// The first enrollment reveals the code radius t, the last level.
	for inject, tcap := 1, 1; inject <= tcap; inject++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target, truth, err := transcript.Enroll(seqPairSpec(seed), nil)
		if err != nil {
			return nil, err
		}
		tcap = target.Spec().Code.T()
		res, err := attack.Run(ctx, "seqpair", target, attack.Options{InjectErrors: inject})
		if err != nil {
			return nil, err
		}
		cal := res.Details.(attack.SeqPairDetails).Calibration
		out = append(out, OffsetSizeRow{
			InjectErrors: inject,
			PNominal:     cal.PNominal,
			PElevated:    cal.PElevated,
			Queries:      res.Queries,
			Recovered:    res.Key.Equal(truth) || res.Key.Equal(truth.Not()),
		})
	}
	return out, nil
}
