package attack

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/tempco"
)

func init() { Register(tempCoAttack{}) }

// TempCoDetails is the tempco attack's Report payload: bit relations
// over the cooperating pairs (absolute XOR values) plus the absolutely
// recovered bits of every good pair used as a mask — the paper's partial
// key recovery.
type TempCoDetails struct {
	// CoopIdx lists the cooperating pairs (indices into the helper's
	// pair list).
	CoopIdx []int
	// XorWithRef[i] = r_i XOR r_ref for cooperating pair i, where ref is
	// the reference cooperating pair RefIdx (the requester's original
	// helping pair).
	XorWithRef map[int]bool
	RefIdx     int
	// MaskBits holds absolutely recovered good-pair bits: for every
	// cooperating pair c with mask g and helper ci, r_g = r_c XOR r_ci
	// follows from the masking constraint once the cooperating-pair
	// relations are known.
	MaskBits map[int]bool
	// Skipped lists cooperating pairs that could not be tested (their
	// own crossover interval contains the operating temperature, so
	// their measured bit is unstable).
	Skipped     []int
	Calibration Calibration
}

// tempCoAttack is the paper's §VI-B relation recovery against a deployed
// temperature-aware cooperative RO PUF at its current ambient
// temperature.
//
// A "requesting" cooperating pair c is forced into cooperation by
// rewriting its crossover interval to contain the ambient temperature;
// its reconstructed bit then equals r_x XOR r_g for whatever helping
// pair x the attacker designates, and substituting x while watching the
// failure rate decides r_x versus r_ci (the originally designated
// helper). The common error offset uses the interval-boundary
// manipulation the paper suggests — shifting Tl/Th so the device applies
// crossover compensation wrongly — extended to GOOD pairs by relabeling
// their class tag (the tag is helper data too), which makes the
// injection pool essentially the whole block.
type tempCoAttack struct{}

func (tempCoAttack) Name() string { return "tempco" }
func (tempCoAttack) Description() string {
	return "§VI-B temperature-aware cooperative relation recovery"
}

func (a tempCoAttack) Run(ctx context.Context, t Target, opts Options) (Report, error) {
	spec := t.Spec()
	originalImage, err := t.ReadImage()
	if err != nil {
		return Report{}, err
	}
	var original tempco.Helper
	if err := tempCoInto(originalImage, &original); err != nil {
		return Report{}, err
	}
	defer func() { _ = t.WriteImage(originalImage) }()

	opts.clampInject(spec.Code)
	ambient := spec.AmbientC
	blockLen := spec.Code.N()
	budget := NewBudget(opts.QueryBudget)
	startQueries := t.Queries()
	tr := newTracer(a.Name(), t, opts)

	// Census of the helper.
	var coop, good []int
	inInterval := make(map[int]bool) // cooperating pair unstable at ambient
	protected := make(map[int]bool)  // records other pairs rely on at ambient
	for i, info := range original.Pairs {
		switch info.Class {
		case tempco.Cooperating:
			coop = append(coop, i)
			if ambient >= info.Tl && ambient <= info.Th {
				inInterval[i] = true
				protected[info.HelpIdx] = true
				protected[info.MaskIdx] = true
			}
			// A good pair referenced as a mask must KEEP its Good class
			// tag or the device's structural validation rejects the
			// helper — it cannot be relabeled for injection.
			protected[info.MaskIdx] = true
		case tempco.Good:
			good = append(good, i)
		}
	}
	if len(coop) < 3 {
		return Report{}, fmt.Errorf("attack: only %d cooperating pairs, need >= 3", len(coop))
	}
	if len(good) < 2 {
		return Report{}, fmt.Errorf("attack: need at least 2 good pairs")
	}

	// Reserve one good pair per block as a mask anchor that is never
	// relabeled (relabeled pairs need a valid Good MaskIdx).
	maskAnchor := good[0]

	// Pick a requesting pair not relied on by others whose ORIGINAL
	// helping pair is stable at ambient — the device refuses to
	// cooperate through a helper inside its own declared interval, so
	// an unstable reference would break the baseline arm. The
	// requester's ECC block must also hold enough injectable pairs for
	// the common offset (a requester alone in the final short block is
	// useless), so viability is checked against the injection pool; the
	// pool itself is defined below and only depends on the census.
	usableRequester := func(c int) bool {
		if protected[c] {
			return false
		}
		hi := original.Pairs[c].HelpIdx
		return !inInterval[hi]
	}
	requester := -1
	var refHelper int

	// injectionPool lists value-independent deterministic error
	// injectors in the given ECC block: stable cooperating pairs get
	// their interval shifted to force a wrong compensation; good pairs
	// get relabeled as cooperating with a below-ambient interval. The
	// list is appended to dst, so the decision loops reuse one buffer.
	injectionPool := func(dst []int, blk int, avoid ...int) []int {
		for _, k := range coop {
			if k/blockLen != blk || slices.Contains(avoid, k) || protected[k] || inInterval[k] {
				continue
			}
			dst = append(dst, k)
		}
		for _, k := range good {
			if k/blockLen != blk || slices.Contains(avoid, k) || protected[k] || k == maskAnchor {
				continue
			}
			dst = append(dst, k)
		}
		return dst
	}

	// applyInjection mutates one helper record so that pair k's
	// reconstructed bit inverts deterministically at ambient.
	applyInjection := func(h *tempco.Helper, k int) {
		info := &h.Pairs[k]
		switch original.Pairs[k].Class {
		case tempco.Cooperating:
			if ambient < original.Pairs[k].Tl {
				// Not crossed yet; a declared interval below ambient
				// makes the device invert wrongly.
				info.Tl, info.Th = ambient-10, ambient-5
			} else {
				// Already crossed; a declared interval above ambient
				// suppresses the needed inversion.
				info.Tl, info.Th = ambient+5, ambient+10
			}
		case tempco.Good:
			// Relabel as cooperating with a below-ambient interval: the
			// device inverts the (stable) measured bit.
			info.Class = tempco.Cooperating
			info.Tl, info.Th = ambient-10, ambient-5
			info.MaskIdx = maskAnchor
			info.HelpIdx = requester // any cooperating pair; never used
		}
	}

	// install rewrites one of the two pooled write slots (a decision's
	// substitution and reference arms, calibration's nominal and
	// elevated arms) into a helper with the requester forced into
	// cooperation via helping pair x plus the listed injections, and
	// returns the slot's hypothesis. The manipulated pair list lives in
	// one pooled buffer, encoded into the slot's blob before install
	// returns.
	slots := [2]*armSlot{newWriteSlot(), newWriteSlot()}
	var pairsBuf []tempco.PairInfo
	install := func(slot, req, x int, inject []int) Hypothesis {
		pairsBuf = append(pairsBuf[:0], original.Pairs...)
		h := tempco.Helper{Pairs: pairsBuf, Offset: original.Offset}
		h.Pairs[req].Tl = ambient - 1
		h.Pairs[req].Th = ambient + 1
		h.Pairs[req].HelpIdx = x
		for _, k := range inject {
			applyInjection(&h, k)
		}
		sl := slots[slot]
		sl.blob = h.Append(sl.blob[:0])
		tempCoImage(sl.im, sl.blob)
		return sl.hyp
	}

	// Requester selection, now that pool viability can be evaluated:
	// two passes, preferring requesters stable at ambient.
	var pool []int
	for _, stableOnly := range []bool{true, false} {
		for _, c := range coop {
			if !usableRequester(c) || (stableOnly && inInterval[c]) {
				continue
			}
			hi := original.Pairs[c].HelpIdx
			pool = injectionPool(pool[:0], c/blockLen, c, hi)
			if len(pool) >= opts.InjectErrors+1 {
				requester, refHelper = c, hi
				break
			}
		}
		if requester != -1 {
			break
		}
	}
	if requester == -1 {
		return Report{}, fmt.Errorf("attack: no requesting pair with a stable reference and a viable injection pool at %v C", ambient)
	}

	blk := requester / blockLen
	basePool := injectionPool(nil, blk, requester, refHelper)

	// Calibration: offset and offset+1 rates.
	tr.phase("calibrate")
	cal, err := calibrate(ctx, t,
		install(0, requester, refHelper, basePool[:opts.InjectErrors]),
		install(1, requester, refHelper, basePool[:opts.InjectErrors+1]),
		calibrationQueries, budget)
	if err != nil {
		return Report{}, err
	}
	dist := cal.Apply(opts.Dist)

	// Relation recovery: rel(x) = [r_x != r_refHelper] for every other
	// cooperating pair x stable at ambient.
	tr.phase("relations")
	xorWithRef := map[int]bool{refHelper: false}
	var skipped []int
	for n, x := range coop {
		if x == requester || x == refHelper {
			continue
		}
		if inInterval[x] {
			skipped = append(skipped, x)
			continue
		}
		pool = injectionPool(pool[:0], blk, requester, refHelper, x)
		if len(pool) < opts.InjectErrors {
			skipped = append(skipped, x)
			continue
		}
		inj := pool[:opts.InjectErrors]
		best, _, err := dist.BestHypotheses(ctx, t, []Hypothesis{
			install(0, requester, x, inj),         // substitution arm
			install(1, requester, refHelper, inj), // reference arm
		}, budget)
		if err != nil {
			return Report{}, fmt.Errorf("attack: pair %d: %w", x, err)
		}
		xorWithRef[x] = best != 0
		tr.step("relations", n+1, len(coop))
	}

	// The requester itself gets its relation through a second requester.
	if rel, ok, err := a.secondRequester(ctx, t, original, dist, budget, opts, install, injectionPool, xorWithRef,
		coop, inInterval, protected, requester, refHelper, blockLen); err != nil {
		return Report{}, err
	} else if ok {
		xorWithRef[requester] = rel
	}

	// Absolute mask-bit recovery: r_g = r_c XOR r_ci for every
	// cooperating pair whose two relations are known.
	maskBits := make(map[int]bool)
	for _, c := range coop {
		relC, okC := xorWithRef[c]
		info := original.Pairs[c]
		relCi, okCi := xorWithRef[info.HelpIdx]
		if okC && okCi && info.MaskIdx >= 0 {
			maskBits[info.MaskIdx] = relC != relCi
		}
	}

	rep := tr.report(startQueries)
	rep.Details = TempCoDetails{
		CoopIdx:     coop,
		XorWithRef:  xorWithRef,
		RefIdx:      refHelper,
		MaskBits:    maskBits,
		Skipped:     skipped,
		Calibration: cal,
	}
	return rep, nil
}

// secondRequester recovers the first requester's own relation by forcing
// a different cooperating pair into cooperation and designating the
// first requester as its helper.
func (tempCoAttack) secondRequester(
	ctx context.Context,
	t Target,
	original tempco.Helper,
	dist Distinguisher,
	budget *Budget,
	opts Options,
	install func(slot, req, x int, inject []int) Hypothesis,
	injectionPool func(dst []int, blk int, avoid ...int) []int,
	xorWithRef map[int]bool,
	coop []int,
	inInterval, protected map[int]bool,
	requester, refHelper, blockLen int,
) (bool, bool, error) {
	var pool []int
	for _, second := range coop {
		if second == requester || second == refHelper || inInterval[second] || protected[second] {
			continue
		}
		ref2 := original.Pairs[second].HelpIdx
		rel2, known := xorWithRef[ref2]
		if !known || ref2 == requester || inInterval[ref2] {
			continue
		}
		blk2 := second / blockLen
		pool = injectionPool(pool[:0], blk2, second, ref2, requester, refHelper)
		if len(pool) < opts.InjectErrors {
			continue
		}
		inj := pool[:opts.InjectErrors]
		best, _, err := dist.BestHypotheses(ctx, t, []Hypothesis{
			install(0, second, requester, inj), // substitution arm
			install(1, second, ref2, inj),      // reference arm
		}, budget)
		if err != nil {
			return false, false, err
		}
		// best!=0 => r_requester != r_ref2; translate into the
		// refHelper frame via rel2 = r_ref2 XOR r_refHelper.
		return (best != 0) != rel2, true, nil
	}
	return false, false, nil
}
