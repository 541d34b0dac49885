package attack

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/helperdata"
	"repro/internal/perm"
	"repro/internal/rng"
)

func init() { Register(groupBasedAttack{}) }

// The §VI-C tuning: the injected level plane's steepness and the seed
// of the attack's own randomness (codeword draws).
const (
	groupBasedPatternMHz = 1000
	groupBasedSeed       = 0xa77ac4
)

// GroupBasedDetails is the groupbased attack's Report payload.
type GroupBasedDetails struct {
	// Orders[g] is the recovered descending-residual order of original
	// group g in label space (nil when the pairwise relations came out
	// non-transitive, i.e. at least one decision was wrong).
	Orders [][]int
	// Resolved counts groups whose order was recovered.
	Resolved int
}

// groupBasedAttack is the paper's §VI-C full key recovery against a
// deployed group-based RO PUF.
//
// For every pair of oscillators (a, b) sharing an ORIGINAL group, the
// attacker superimposes onto the enrolled distiller polynomial a steep
// plane whose level lines run through a and b (the generalization of the
// Fig. 6a quadratic: a and b receive identical pattern values, everyone
// else is dominated by the gradient), repartitions the array into
// attacker-chosen groups ({a, b} plus forced pairs across distinct level
// lines, leftovers as singletons), recomputes the code-offset redundancy
// for both hypotheses about the one undetermined bit — with the common
// error offset folded in — and compares failure rates. The recovered
// pairwise relations reassemble each original group's frequency order
// and hence the full key.
type groupBasedAttack struct{}

func (groupBasedAttack) Name() string { return "groupbased" }
func (groupBasedAttack) Description() string {
	return "§VI-C group-based full key recovery"
}

func (a groupBasedAttack) Run(ctx context.Context, t Target, opts Options) (Report, error) {
	spec := t.Spec()
	if spec.Rows <= 0 || spec.Cols <= 0 {
		return Report{}, fmt.Errorf("attack: groupbased needs array geometry in the spec, got %dx%d", spec.Rows, spec.Cols)
	}
	if _, ok := t.(KeyBinder); !ok {
		return Report{}, fmt.Errorf("attack: groupbased needs a reprogrammed-key target (KeyBinder)")
	}
	originalImage, err := t.ReadImage()
	if err != nil {
		return Report{}, err
	}
	original, err := GroupBasedFromImage(originalImage)
	if err != nil {
		return Report{}, err
	}
	// The image is untrusted input: its group assignment must cover the
	// spec's array exactly or the geometry indexing below would be out
	// of bounds.
	if got, want := len(original.Grouping.Assign), spec.Rows*spec.Cols; got != want {
		return Report{}, fmt.Errorf("attack: grouping covers %d oscillators, array has %d", got, want)
	}
	defer func() { _ = t.WriteImage(originalImage) }()

	src := rng.New(groupBasedSeed)
	tcap := spec.Code.T()
	if opts.InjectErrors <= 0 || opts.InjectErrors > tcap {
		opts.InjectErrors = tcap
	}
	budget := NewBudget(opts.QueryBudget)
	startQueries := t.Queries()
	tr := newTracer(a.Name(), t, opts)

	tr.phase("pairwise")
	members := original.Grouping.Members()
	totalPairs := 0
	for _, group := range members {
		totalPairs += len(group) * (len(group) - 1) / 2
	}
	// rel[a][b] = true when residual(b) > residual(a); keyed a < b.
	rel := make(map[[2]int]bool)
	done := 0
	var sc gbScratch
	for _, group := range members {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				bit, err := decidePairOrder(ctx, t, spec, original, opts, src, budget, &sc, a, b)
				if err != nil {
					return Report{}, fmt.Errorf("attack: pair (%d,%d): %w", a, b, err)
				}
				rel[[2]int{a, b}] = bit
				done++
				tr.step("pairwise", done, totalPairs)
			}
		}
	}

	// Reassemble each group's order from the pairwise tournament.
	tr.phase("assemble")
	det := GroupBasedDetails{Orders: make([][]int, len(members))}
	allResolved := true
	for g, group := range members {
		if len(group) < 2 {
			det.Orders[g] = []int{}
			if len(group) == 1 {
				det.Orders[g] = []int{0}
			}
			det.Resolved++
			continue
		}
		order, ok := orderFromRelations(group, rel)
		if !ok {
			allResolved = false
			continue
		}
		det.Orders[g] = order
		det.Resolved++
	}
	var key bitvec.Vector
	if allResolved {
		// Offline polish: the original offset binds the enrolled Kendall
		// stream; decoding our recovered stream against it repairs
		// noise-marginal order decisions (up to t per block) for free.
		stream := bitvec.New(0)
		for g, group := range members {
			if len(group) >= 2 {
				stream = stream.Concat(perm.KendallEncode(det.Orders[g]))
			}
		}
		stream = polishWithOriginalOffset(stream, original.Offset, spec.Code)
		if packed, err := groupbased.PackKey(&original.Grouping, stream); err == nil {
			key = packed
			// Re-derive the polished orders for reporting.
			at := 0
			for g, group := range members {
				n := len(group)
				if n < 2 {
					continue
				}
				bits := perm.KendallBits(n)
				if order, err := perm.KendallDecode(stream.Slice(at, at+bits), n); err == nil {
					det.Orders[g] = order
				}
				at += bits
			}
		} else {
			// Packing failed after polish (should not happen with valid
			// orders); fall back to the unpolished assembly.
			key = bitvec.New(0)
			for g, group := range members {
				if len(group) >= 2 {
					key = key.Concat(perm.CompactEncode(det.Orders[g]))
				}
			}
		}
	}

	rep := tr.report(startQueries)
	rep.Key = key
	rep.Details = det
	return rep, nil
}

// gbScratch carries the reusable buffers of one groupbased Run. Every
// pair decision rebuilds the same shapes of intermediate state —
// partition, hypothesis streams, padded codewords, crafted offsets,
// marshaled blobs — so the run allocates them once and the steady-state
// pair loop reuses them. Hypothesis images are the exception: the
// adapters' write/parse caches key on image identity, so every arm gets
// a fresh Image. Its blobs may still come from the pools below, because
// an arm's image is never re-installed after its pair's decision — the
// invariant that makes blob reuse safe.
type gbScratch struct {
	levels    []int
	ros       []int
	classes   []gbClass
	assign    []int
	predicted []bool
	polyBeta  []float64
	stream    bitvec.Vector
	injected  bitvec.Vector
	padded    bitvec.Vector
	msg       bitvec.Vector
	offsetW   bitvec.Vector
	predKey   [2]bitvec.Vector
	offBlob   [2][]byte
	blocks    int
	block     *ecc.Block
	ws        ecc.Workspace
	perm      perm.Scratch
}

// gbClass is one level class of the rainbow matching.
type gbClass struct {
	level int
	ros   []int
}

// vec returns *v resized to n bits, reallocating only on length change.
// Contents are unspecified; callers overwrite the buffer fully.
func scratchVec(v *bitvec.Vector, n int) bitvec.Vector {
	if v.Len() != n {
		*v = bitvec.New(n)
	}
	return *v
}

// resizeInts returns *buf resized to n elements, reallocating only on
// growth. Contents are unspecified.
func resizeInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// resizeBools is resizeInts for boolean flags.
func resizeBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// decidePairOrder recovers [residual(b) > residual(a)] for one target
// pair via the two-hypothesis helper manipulation.
func decidePairOrder(ctx context.Context, t Target, spec Spec, original groupbased.Helper, opts Options, src *rng.Source, budget *Budget, sc *gbScratch, a, b int) (bool, error) {
	cols, rows := spec.Cols, spec.Rows
	n := rows * cols
	xa, ya := a%cols, a/cols
	xb, yb := b%cols, b/cols

	pattern, levels := levelPlane(sc, cols, rows, xa, ya, xb, yb, groupBasedPatternMHz)
	designPartition(sc, n, a, b, levels)

	// The partition covers every oscillator exactly once by
	// construction, so the legacy PairsToGrouping validation cannot
	// fire; the grouping borrows the scratch assignment directly.
	grouping := groupbased.Grouping{Assign: sc.assign}
	// The superposition reuses the scratch coefficient buffer; the
	// original enrollment polynomial is only read.
	poly := original.Poly.AddInto(pattern, sc.polyBeta)
	sc.polyBeta = poly.Beta

	// Build the predicted Kendall stream. Group 0 is the target pair,
	// its bit is the hypothesis; groups follow in id order, one bit per
	// two-member group, no bits for singletons. The polynomial and
	// grouping blobs are shared by both arm images (read-only once set).
	streamLen := groupbased.StreamLen(&grouping)
	members := grouping.Members()
	polyBlob := poly.Marshal()
	groupBlob := grouping.Marshal()
	makeArm := func(hyp int, hypBit bool) (Hypothesis, error) {
		stream := scratchVec(&sc.stream, streamLen)
		at := 0
		for id, g := range members {
			if len(g) < 2 {
				continue
			}
			if id == 0 {
				stream.Set(at, hypBit)
			} else {
				stream.Set(at, sc.predicted[id])
			}
			at++
		}
		// Common offset: flip InjectErrors forced bits inside the
		// target bit's ECC block (positions 1.. within block 0).
		injected := scratchVec(&sc.injected, streamLen)
		stream.CopyInto(injected)
		count := 0
		for pos := 1; pos < min(spec.Code.N(), streamLen) && count < opts.InjectErrors; pos++ {
			injected.Flip(pos)
			count++
		}
		if count < opts.InjectErrors {
			return nil, fmt.Errorf("attack: only %d injectable bits in block", count)
		}
		padLen := paddedLen(streamLen, spec.Code)
		padded := scratchVec(&sc.padded, padLen)
		padded.Zero()
		padded.PutAt(0, injected)
		blocks := padLen / spec.Code.N()
		if sc.block == nil || sc.blocks != blocks {
			sc.block = ecc.NewBlock(spec.Code, blocks)
			sc.blocks = blocks
		}
		msg := scratchVec(&sc.msg, sc.block.K())
		for i := 0; i < msg.Len(); i++ {
			msg.Set(i, src.Bool())
		}
		offsetW := scratchVec(&sc.offsetW, padLen)
		ecc.OffsetForInto(sc.block, padded, msg, &sc.ws, offsetW)

		// The application key the attacker predicts for this arm: the
		// code-offset recovers the stream the offset was GENERATED for,
		// i.e. the injected stream — the device's key is its packing.
		// (All attacker groups have at most two members, so any bit
		// pattern is a valid Kendall coding and packing cannot fail.)
		// Targets copy the key at BindKey, so the per-arm buffer can be
		// reused across pairs.
		keyLen := groupbased.KeyLen(&grouping)
		if sc.predKey[hyp].Len() != keyLen {
			sc.predKey[hyp] = bitvec.New(keyLen)
		}
		if err := groupbased.PackKeyInto(&grouping, padded, &sc.perm, sc.predKey[hyp]); err != nil {
			return nil, err
		}
		blob, err := offsetW.AppendBinary(sc.offBlob[hyp][:0])
		if err != nil {
			return nil, err
		}
		sc.offBlob[hyp] = blob
		im := helperdata.NewImage()
		im.SetOwned(helperdata.SectionPolynomial, polyBlob)
		im.SetOwned(helperdata.SectionGrouping, groupBlob)
		im.SetOwned(helperdata.SectionOffset, blob)
		return bindingHypothesis(im, sc.predKey[hyp]), nil
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

// levelPlane returns the steep plane whose level lines pass through both
// targets, together with the integer level key of every oscillator
// (equal keys = equal pattern values, exactly). The level slice lives in
// the run scratch.
func levelPlane(sc *gbScratch, cols, rows, xa, ya, xb, yb int, amp float64) (distiller.Poly2D, []int) {
	pattern := distiller.PerpendicularPlane(xa, ya, xb, yb, amp)
	nx, ny := -(yb - ya), xb-xa
	levels := resizeInts(&sc.levels, rows*cols)
	for i := range levels {
		x, y := i%cols, i/cols
		levels[i] = nx*x + ny*y
	}
	return pattern, levels
}

// designPartition builds the attacker's partition straight into the run
// scratch: group 0 is the target pair; remaining oscillators are paired
// across DISTINCT level lines so every forced pair's order is dominated
// by the pattern; oscillators left over become singletons. The group ids
// land in sc.assign and sc.predicted[id] gives the forced Kendall bit of
// two-member group id: with labels ordered by ascending RO index, the
// bit is 1 when the higher-index member has the LOWER pattern level (its
// distilled residual is larger). Ids are issued in the same order as the
// legacy group-list construction, so the partition is bit-identical.
func designPartition(sc *gbScratch, n, a, b int, levels []int) {
	assign := resizeInts(&sc.assign, n)
	// predicted[id] is written for every two-member group id before it
	// is read, so stale entries from the previous pair are never seen.
	predicted := resizeBools(&sc.predicted, n)
	assign[a], assign[b] = 0, 0

	// Bucket the remaining oscillators by level: one stable sort over
	// (level, ascending index) yields the same per-level lists as a
	// map of appends, without the per-call map churn of this inner-loop
	// helper (one call per recovered key bit decision).
	ros := sc.ros[:0]
	for i := 0; i < n; i++ {
		if i != a && i != b {
			ros = append(ros, i)
		}
	}
	sc.ros = ros
	slices.SortStableFunc(ros, func(x, y int) int { return cmp.Compare(levels[x], levels[y]) })

	// Repeatedly pair one member from the two currently largest level
	// classes; this admits a perfect rainbow matching whenever no class
	// holds more than half the remainder, and gracefully leaves
	// singletons otherwise.
	classes := sc.classes[:0]
	for at := 0; at < len(ros); {
		lvl := levels[ros[at]]
		end := at
		for end < len(ros) && levels[ros[end]] == lvl {
			end++
		}
		classes = append(classes, gbClass{level: lvl, ros: ros[at:end:end]})
		at = end
	}
	sc.classes = classes
	largestTwo := func() (int, int) {
		i1, i2 := -1, -1
		for i := range classes {
			if len(classes[i].ros) == 0 {
				continue
			}
			if i1 == -1 || len(classes[i].ros) > len(classes[i1].ros) {
				i2 = i1
				i1 = i
			} else if i2 == -1 || len(classes[i].ros) > len(classes[i2].ros) {
				i2 = i
			}
		}
		return i1, i2
	}
	id := 1
	for {
		i1, i2 := largestTwo()
		if i1 == -1 || i2 == -1 {
			break
		}
		c1, c2 := &classes[i1], &classes[i2]
		ro1 := c1.ros[len(c1.ros)-1]
		ro2 := c2.ros[len(c2.ros)-1]
		c1.ros = c1.ros[:len(c1.ros)-1]
		c2.ros = c2.ros[:len(c2.ros)-1]
		assign[ro1], assign[ro2] = id, id
		// Canonical label order is ascending RO index; label B (the
		// higher index) precedes when its pattern value is lower.
		low, high := ro1, ro2
		if low > high {
			low, high = high, low
		}
		predicted[id] = levels[high] < levels[low]
		id++
	}
	// Leftovers become singleton groups.
	for ci := range classes {
		for _, ro := range classes[ci].ros {
			assign[ro] = id
			id++
		}
	}
}

// orderFromRelations reconstructs a group's descending order (in label
// space) from pairwise relations; ok=false when the tournament is not
// transitive.
func orderFromRelations(group []int, rel map[[2]int]bool) ([]int, bool) {
	n := len(group)
	wins := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := group[i], group[j]
			// rel = residual(b) > residual(a)
			if rel[[2]int{a, b}] {
				wins[j]++
			} else {
				wins[i]++
			}
		}
	}
	order := make([]int, n)
	seen := make([]bool, n)
	for label, w := range wins {
		pos := n - 1 - w
		if pos < 0 || pos >= n || seen[pos] {
			return nil, false
		}
		seen[pos] = true
		order[pos] = label
	}
	return order, true
}

// polishWithOriginalOffset exploits the device's ORIGINAL code-offset
// helper as a free offline oracle: it binds the enrolled response, so
// decoding the recovered key against it corrects any residual
// majority-vs-enrollment discrepancies on noise-marginal bits (up to t
// per block) without a single extra device query.
func polishWithOriginalOffset(key, offset bitvec.Vector, code ecc.Code) bitvec.Vector {
	if offset.Len() == 0 || offset.Len()%code.N() != 0 || key.Len() > offset.Len() {
		return key
	}
	padded := key.Concat(bitvec.New(offset.Len() - key.Len()))
	block := ecc.NewBlock(code, offset.Len()/code.N())
	if corrected, _, ok := ecc.Reproduce(block, ecc.Offset{W: offset}, padded); ok {
		return corrected.Slice(0, key.Len())
	}
	return key
}

func paddedLen(streamLen int, code ecc.Code) int {
	n := code.N()
	blocks := (streamLen + n - 1) / n
	if blocks == 0 {
		blocks = 1
	}
	return blocks * n
}
