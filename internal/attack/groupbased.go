package attack

import (
	"context"
	"fmt"
	"math/bits"
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
	assign    []int
	predicted []bool
	polyBeta  []float64
	padded    bitvec.Vector
	msg       bitvec.Vector
	offsetW   bitvec.Vector
	predKey   [2]bitvec.Vector
	offBlob   [2][]byte
	blocks    int
	block     *ecc.Block
	ws        ecc.Workspace
	part      partitionScratch
}

// partitionScratch holds designPartition's level classes and its
// size-bucketed selection state.
type partitionScratch struct {
	// ros lists the non-target oscillators by ascending level, ascending
	// index within a level; class c owns ros[start[c]:start[c]+size[c]]
	// and gives up its highest index first.
	ros   []int
	start []int
	size  []int
	// bySize[s*words:(s+1)*words] is the bitset of the classes holding s
	// members; count[s] is its population.
	bySize []uint64
	count  []int
	// levelAt counts, then indexes, the oscillators per level.
	levelAt []int
}

// scratchVec returns *v resized to n bits, reallocating only on growth.
// Contents are unspecified; callers overwrite the buffer fully.
func scratchVec(v *bitvec.Vector, n int) bitvec.Vector {
	if v.Len() != n {
		*v = v.Resized(n)
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
	pairs := designPartition(sc, n, a, b, levels)

	// The partition covers every oscillator exactly once by
	// construction, so the legacy PairsToGrouping validation cannot
	// fire; the grouping borrows the scratch assignment directly.
	grouping := groupbased.Grouping{Assign: sc.assign}
	// The superposition reuses the scratch coefficient buffer; the
	// original enrollment polynomial is only read.
	poly := original.Poly.AddInto(pattern, sc.polyBeta)
	sc.polyBeta = poly.Beta

	// The attacker's grouping is groups 0..pairs-1 of two members
	// followed by singletons, so its Kendall stream has one bit per
	// pair, group id's bit at position id: group 0 is the target pair,
	// its bit the hypothesis. A two-member group's Kendall bit is also
	// its compact coding, so the key the device packs is the stream
	// itself. The polynomial and grouping blobs are shared by both arm
	// images (read-only once set).
	polyBlob := poly.Marshal()
	groupBlob := grouping.Marshal()
	makeArm := func(hyp int, hypBit bool) (Hypothesis, error) {
		// The application key the attacker predicts for this arm: the
		// code-offset recovers the stream the offset was GENERATED for,
		// i.e. the injected stream. Targets copy the key at BindKey, so
		// the per-arm buffer can be reused across pairs.
		injected := scratchVec(&sc.predKey[hyp], pairs)
		injected.Set(0, hypBit)
		for id := 1; id < pairs; id++ {
			injected.Set(id, sc.predicted[id])
		}
		// Common offset: flip InjectErrors forced bits inside the
		// target bit's ECC block (positions 1.. within block 0).
		count := 0
		for pos := 1; pos < min(spec.Code.N(), pairs) && count < opts.InjectErrors; pos++ {
			injected.Flip(pos)
			count++
		}
		if count < opts.InjectErrors {
			return nil, fmt.Errorf("attack: only %d injectable bits in block", count)
		}
		padLen := paddedLen(pairs, spec.Code)
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

		blob, err := offsetW.AppendBinary(sc.offBlob[hyp][:0])
		if err != nil {
			return nil, err
		}
		sc.offBlob[hyp] = blob
		im := helperdata.NewImage()
		im.SetOwned(helperdata.SectionPolynomial, polyBlob)
		im.SetOwned(helperdata.SectionGrouping, groupBlob)
		im.SetOwned(helperdata.SectionOffset, blob)
		return bindingHypothesis(im, injected), nil
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
// distilled residual is larger). It returns the number of two-member
// groups p: ids 0..p-1 are the pairs, ids p.. the singletons.
//
// Pairing repeatedly takes the highest remaining index of the two
// currently largest level classes, ties going to the lower level; this
// admits a perfect rainbow matching whenever no class holds more than
// half the remainder, and gracefully leaves singletons otherwise. The
// classes come from a counting sort by level and the two largest from
// per-size bitsets of classes, so a partition costs O(n) plus a word
// scan per pair.
func designPartition(sc *gbScratch, n, a, b int, levels []int) int {
	ps := &sc.part
	assign := resizeInts(&sc.assign, n)
	// predicted[id] is written for every two-member group id before it
	// is read, so stale entries from the previous pair are never seen.
	predicted := resizeBools(&sc.predicted, n)
	assign[a], assign[b] = 0, 0

	// Counting sort of the remaining oscillators by level, stable in
	// ascending index; every non-empty level becomes one class.
	lo, hi := levels[0], levels[0]
	for _, l := range levels {
		lo, hi = min(lo, l), max(hi, l)
	}
	levelAt := resizeInts(&ps.levelAt, hi-lo+1)
	clear(levelAt)
	for i, l := range levels {
		if i != a && i != b {
			levelAt[l-lo]++
		}
	}
	ps.start, ps.size = ps.start[:0], ps.size[:0]
	largest, at := 0, 0
	for l, c := range levelAt {
		levelAt[l] = at
		if c > 0 {
			ps.start = append(ps.start, at)
			ps.size = append(ps.size, c)
			largest = max(largest, c)
		}
		at += c
	}
	ros := resizeInts(&ps.ros, at)
	for i, l := range levels {
		if i != a && i != b {
			ros[levelAt[l-lo]] = i
			levelAt[l-lo]++
		}
	}

	// Bucket the classes by size.
	words := (len(ps.size) + 63) / 64
	bySize := slices.Grow(ps.bySize[:0], (largest+1)*words)[:(largest+1)*words]
	clear(bySize)
	ps.bySize = bySize
	count := resizeInts(&ps.count, largest+1)
	clear(count)
	for c, s := range ps.size {
		bySize[s*words+c/64] |= 1 << (c % 64)
		count[s]++
	}
	bucket := func(s int) []uint64 { return bySize[s*words : (s+1)*words] }
	// take pops class c's highest remaining index and moves the class
	// one size bucket down.
	take := func(c int) int {
		s := ps.size[c]
		bucket(s)[c/64] &^= 1 << (c % 64)
		count[s]--
		s--
		ps.size[c] = s
		if s > 0 {
			bucket(s)[c/64] |= 1 << (c % 64)
			count[s]++
		}
		return ros[ps.start[c]+s]
	}

	// top bounds the largest class size and second the second-largest;
	// both only shrink, so their downward scans are amortised O(n).
	id, top, second := 1, largest, largest
	for {
		for top > 0 && count[top] == 0 {
			top--
		}
		if top == 0 {
			break
		}
		c1 := firstClass(bucket(top), 0)
		var c2 int
		if count[top] >= 2 {
			c2 = firstClass(bucket(top), c1+1)
		} else {
			second = min(second, top-1)
			for second > 0 && count[second] == 0 {
				second--
			}
			if second == 0 {
				break
			}
			c2 = firstClass(bucket(second), 0)
		}
		ro1, ro2 := take(c1), take(c2)
		assign[ro1], assign[ro2] = id, id
		// Canonical label order is ascending RO index; label B (the
		// higher index) precedes when its pattern value is lower.
		low, high := min(ro1, ro2), max(ro1, ro2)
		predicted[id] = levels[high] < levels[low]
		id++
	}
	pairs := id
	// Leftovers become singleton groups, by level then index.
	for c, start := range ps.start {
		for _, ro := range ros[start : start+ps.size[c]] {
			assign[ro] = id
			id++
		}
	}
	return pairs
}

// firstClass returns the lowest class index at or above from in a class
// bitset; the caller guarantees one exists.
func firstClass(set []uint64, from int) int {
	w := from / 64
	word := set[w] &^ (1<<(from%64) - 1)
	for word == 0 {
		w++
		word = set[w]
	}
	return w*64 + bits.TrailingZeros64(word)
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
