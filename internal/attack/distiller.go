package attack

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/pairing"
)

func init() {
	Register(maskingAttack{})
	Register(chainAttack{})
}

// The §VI-D tuning: the injected pattern's steepness and the secondary
// gradient that pins every pair the pattern does not target.
const (
	distillerPatternMHz = 500
	distillerTiltMHz    = 80
)

// MaskingDetails is the masking attack's Report payload.
type MaskingDetails struct {
	// BaseBits[i] is the recovered residual-sign bit of base pair i
	// (true = pair.A's distilled residual exceeds pair.B's... i.e. the
	// response bit the pair would produce).
	BaseBits []bool
}

// maskingAttack is the paper's Fig. 6b attack against an entropy
// distiller composed with 1-out-of-k masking over a disjoint neighbor
// chain. Every base pair is isolated in turn: a quadratic valley
// centered between the pair's two oscillators ties their pattern values
// while a small orthogonal tilt pins every other selected pair; the
// attacker rewrites the masking helper to select pattern-determined
// pairs elsewhere, recomputes the ECC offset for both hypotheses about
// the target bit (over the zero codeword, see armScratch.add), and
// compares failure rates. Recovering all base-pair bits reveals the
// original key through the public masking selections.
type maskingAttack struct{}

func (maskingAttack) Name() string { return "masking" }
func (maskingAttack) Description() string {
	return "Fig. 6b distiller + 1-out-of-k masking full key recovery"
}

func (a maskingAttack) Run(ctx context.Context, t Target, opts Options) (Report, error) {
	spec := t.Spec()
	if spec.Rows <= 0 || spec.Cols <= 0 {
		return Report{}, fmt.Errorf("attack: masking needs array geometry in the spec, got %dx%d", spec.Rows, spec.Cols)
	}
	if _, ok := t.(KeyBinder); !ok {
		return Report{}, fmt.Errorf("attack: masking needs a reprogrammed-key target (KeyBinder)")
	}
	originalImage, err := t.ReadImage()
	if err != nil {
		return Report{}, err
	}
	var origPoly distiller.Poly2D
	var origMask pairing.MaskingHelper
	var origOffset bitvec.Vector
	hasMask, err := distillerInto(originalImage, &origPoly, &origMask, &origOffset)
	if err != nil {
		return Report{}, err
	}
	if !hasMask {
		return Report{}, fmt.Errorf("attack: helper image carries no masking section")
	}
	defer func() { _ = t.WriteImage(originalImage) }()

	opts.clampInject(spec.Code)
	budget := NewBudget(opts.QueryBudget)
	startQueries := t.Queries()
	tr := newTracer(a.Name(), t, opts)

	tr.phase("bits")
	base := pairing.ChainPairs(spec.Rows, spec.Cols, true)
	groups := len(origMask.Selected)
	usable := groups * origMask.K
	// The image is untrusted input: its masking shape must agree with
	// the spec's architecture-derived chain or indexing below would be
	// out of bounds.
	if origMask.K < 1 || usable > len(base) {
		return Report{}, fmt.Errorf("attack: masking helper covers %d base pairs (k=%d), chain has %d",
			usable, origMask.K, len(base))
	}
	bits := make([]bool, len(base))
	sc := armScratch{code: spec.Code, inject: opts.InjectErrors, compose: distillerImage}
	// The rewritten selections cover every k-group of the chain.
	selected, predicted := make([]int, len(base)/origMask.K), make([]bool, len(base)/origMask.K)
	for target := 0; target < usable; target++ {
		bit, err := decideMaskedPairBit(ctx, t, spec, origPoly, origMask.K, base, opts.Dist, budget, &sc, selected, predicted, target)
		if err != nil {
			return Report{}, fmt.Errorf("attack: base pair %d: %w", target, err)
		}
		bits[target] = bit
		tr.step("bits", target+1, usable)
	}

	// The original key: bits of the originally selected pairs, polished
	// offline against the original ECC offset (which binds the enrolled
	// key) to repair noise-marginal decisions.
	tr.phase("assemble")
	key := bitvec.New(groups)
	for g, sel := range origMask.Selected {
		key.Set(g, bits[g*origMask.K+sel])
	}
	key = sc.polish(key, origOffset)

	rep := tr.report(startQueries)
	rep.Key = key
	rep.Details = MaskingDetails{BaseBits: bits}
	return rep, nil
}

// decideMaskedPairBit isolates one base pair and recovers its residual
// sign bit. The pattern superimposes onto the ORIGINAL enrollment
// polynomial (not whatever a previous arm left in NVM). selected and
// predicted hold one entry per masking group and are overwritten.
func decideMaskedPairBit(ctx context.Context, t Target, spec Spec, origPoly distiller.Poly2D, k int, base []pairing.Pair, dist Distinguisher, budget *Budget, sc *armScratch, selected []int, predicted []bool, target int) (bool, error) {
	pos := func(ro int) (int, int) { return ro % spec.Cols, ro / spec.Cols }
	tp := base[target]
	pattern := valleyForPair(pos, tp)

	pval := func(ro int) float64 {
		x, y := pos(ro)
		return pattern.Eval(float64(x), float64(y))
	}

	// Rewrite the masking selections: the target's group selects the
	// target; every other group selects its pair with the largest
	// pattern separation (a fully determined bit).
	groups := len(selected)
	targetGroup := target / k
	for g := 0; g < groups; g++ {
		if g == targetGroup {
			selected[g] = target % k
			continue
		}
		bestIdx, bestSep := -1, 0.0
		for i := 0; i < k; i++ {
			pr := base[g*k+i]
			if sep := math.Abs(pval(pr.A) - pval(pr.B)); sep > bestSep {
				bestIdx, bestSep = i, sep
			}
		}
		if bestIdx < 0 || bestSep < 1 {
			return false, fmt.Errorf("attack: group %d has no pattern-determined pair", g)
		}
		selected[g] = bestIdx
		pr := base[g*k+bestIdx]
		// Response bit = [residual'(A) > residual'(B)] and residual' =
		// residual - P, so the pair with the smaller pattern value wins.
		predicted[g] = pval(pr.A) < pval(pr.B)
	}

	// Both arms share the superimposed polynomial and the rewritten
	// masking selections; arm h hypothesizes target bit h.
	sc.decide(origPoly, pattern, pairing.MaskingHelper{K: k, Selected: selected}.Append(sc.layout[:0]))
	for _, hypBit := range [2]bool{false, true} {
		stream := scratchVec(&sc.stream, groups)
		for g := 0; g < groups; g++ {
			if g == targetGroup {
				stream.Set(g, hypBit)
			} else {
				stream.Set(g, predicted[g])
			}
		}
		if err := sc.add(stream, targetGroup, nil); err != nil {
			return false, err
		}
	}
	best, _, err := dist.BestHypotheses(ctx, t, sc.arms, budget)
	if err != nil {
		return false, err
	}
	return best == 1, nil
}

// ChainDetails is the chain attack's Report payload.
type ChainDetails struct {
	// MaxHypotheses is the largest simultaneous hypothesis set used
	// (2^b for b bits undetermined by one pattern — the paper
	// illustrates b = 4).
	MaxHypotheses int
}

// chainAttack is the paper's Fig. 6c attack against an entropy distiller
// composed with an overlapping neighbor chain. A quadratic valley
// centered between two adjacent columns leaves exactly the chain pairs
// straddling that boundary undetermined (one per row — four on the
// paper's 4x10 array), so the attacker enumerates all 2^b hypotheses
// about those bits at once; sliding the valley across every column and
// row boundary recovers the whole key.
type chainAttack struct{}

func (chainAttack) Name() string { return "chain" }
func (chainAttack) Description() string {
	return "Fig. 6c distiller + overlapping chain full key recovery"
}

func (a chainAttack) Run(ctx context.Context, t Target, opts Options) (Report, error) {
	spec := t.Spec()
	if spec.Rows <= 0 || spec.Cols <= 0 {
		return Report{}, fmt.Errorf("attack: chain needs array geometry in the spec, got %dx%d", spec.Rows, spec.Cols)
	}
	if _, ok := t.(KeyBinder); !ok {
		return Report{}, fmt.Errorf("attack: chain needs a reprogrammed-key target (KeyBinder)")
	}
	originalImage, err := t.ReadImage()
	if err != nil {
		return Report{}, err
	}
	var origPoly distiller.Poly2D
	var origMask pairing.MaskingHelper
	var origOffset bitvec.Vector
	if _, err := distillerInto(originalImage, &origPoly, &origMask, &origOffset); err != nil {
		return Report{}, err
	}
	defer func() { _ = t.WriteImage(originalImage) }()

	opts.clampInject(spec.Code)
	budget := NewBudget(opts.QueryBudget)
	startQueries := t.Queries()
	tr := newTracer(a.Name(), t, opts)

	pos := func(ro int) (int, int) { return ro % spec.Cols, ro / spec.Cols }
	base := pairing.ChainPairs(spec.Rows, spec.Cols, false)
	known := make(map[int]bool, len(base)) // chain index -> bit
	maxHyp := 0

	// Column boundaries, then row boundaries.
	type boundary struct {
		vertical bool // vertical line between columns (valley in x)
		at       float64
	}
	var bounds []boundary
	for c := 0; c+1 < spec.Cols; c++ {
		bounds = append(bounds, boundary{vertical: true, at: float64(c) + 0.5})
	}
	for r := 0; r+1 < spec.Rows; r++ {
		bounds = append(bounds, boundary{vertical: false, at: float64(r) + 0.5})
	}

	tr.phase("boundaries")
	sc := armScratch{code: spec.Code, inject: opts.InjectErrors, compose: distillerImage}
	predicted, determined := make([]bool, len(base)), make([]bool, len(base))
	var unknownIdx []int
	for bi, bd := range bounds {
		pattern := valley(bd.vertical, bd.at)
		pval := func(ro int) float64 {
			x, y := pos(ro)
			return pattern.Eval(float64(x), float64(y))
		}
		// Classify chain pairs: determined (predicted) vs undetermined.
		unknownIdx = unknownIdx[:0]
		clear(determined)
		for i, pr := range base {
			sep := pval(pr.A) - pval(pr.B)
			if math.Abs(sep) > 1 {
				determined[i] = true
				predicted[i] = sep < 0 // smaller pattern value wins
			} else if _, ok := known[i]; !ok {
				unknownIdx = append(unknownIdx, i)
			}
		}
		if len(unknownIdx) == 0 {
			continue
		}
		if len(unknownIdx) > 12 {
			return Report{}, fmt.Errorf("attack: %d undetermined bits under one pattern", len(unknownIdx))
		}
		if h := 1 << len(unknownIdx); h > maxHyp {
			maxHyp = h
		}

		// Arm hyp carries undetermined bit p as bit p of hyp.
		sc.decide(origPoly, pattern, nil)
		for hyp := 0; hyp < 1<<len(unknownIdx); hyp++ {
			stream := scratchVec(&sc.stream, len(base))
			for i := range base {
				switch {
				case determined[i]:
					stream.Set(i, predicted[i])
				case slices.Contains(unknownIdx, i):
					p := slices.Index(unknownIdx, i)
					stream.Set(i, hyp>>uint(p)&1 == 1)
				default:
					// Already recovered on an earlier boundary but tied
					// under this pattern: use the known bit.
					stream.Set(i, known[i])
				}
			}
			if err := sc.add(stream, unknownIdx[0], unknownIdx); err != nil {
				return Report{}, err
			}
		}
		best, _, err := opts.Dist.BestHypotheses(ctx, t, sc.arms, budget)
		if err != nil {
			return Report{}, err
		}
		for p, idx := range unknownIdx {
			known[idx] = best>>uint(p)&1 == 1
		}
		tr.step("boundaries", bi+1, len(bounds))
	}

	tr.phase("assemble")
	key := bitvec.New(len(base))
	for i := range base {
		if b, ok := known[i]; ok {
			key.Set(i, b)
		} else {
			return Report{}, fmt.Errorf("attack: chain bit %d never isolated", i)
		}
	}
	key = sc.polish(key, origOffset)

	rep := tr.report(startQueries)
	rep.Key = key
	rep.Details = ChainDetails{MaxHypotheses: maxHyp}
	return rep, nil
}

// valleyForPair builds the Fig. 6b pattern for one target pair: a
// quadratic valley centered between the pair's oscillators along their
// separation axis plus an orthogonal tilt.
func valleyForPair(pos func(int) (int, int), tp pairing.Pair) distiller.Poly2D {
	xa, ya := pos(tp.A)
	xb, yb := pos(tp.B)
	if ya == yb {
		// Horizontal pair: valley in x centered between them, tilt in y.
		return valley(true, (float64(xa)+float64(xb))/2)
	}
	if xa == xb {
		return valley(false, (float64(ya)+float64(yb))/2)
	}
	// Diagonal pairs do not occur on neighbor chains; fall back to the
	// perpendicular plane (levels tie along the perpendicular axis).
	return distiller.PerpendicularPlane(xa, ya, xb, yb, distillerPatternMHz)
}

// valley builds the Fig. 6 pattern both distiller attacks use: a
// quadratic valley centered at `at` along x (vertical: a line between
// columns) or along y, plus the orthogonal tilt that pins every pair the
// valley does not target.
func valley(vertical bool, at float64) distiller.Poly2D {
	if vertical {
		return distiller.QuadraticValleyX(at, distillerPatternMHz).AddInto(distiller.Plane(0, 0, distillerTiltMHz), nil)
	}
	return distiller.QuadraticValleyY(at, distillerPatternMHz).AddInto(distiller.Plane(0, distillerTiltMHz, 0), nil)
}
