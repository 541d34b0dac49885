package attack

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/groupbased"
	"repro/internal/perm"
)

func init() { Register(groupBasedAttack{}) }

// The §VI-C tuning: the injected level plane's steepness.
const groupBasedPatternMHz = 1000

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
// error offset folded in, over the zero codeword (armScratch.add) — and
// compares failure rates. The recovered pairwise relations reassemble
// each original group's frequency order and hence the full key.
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
	var original groupbased.Helper
	if err := groupBasedInto(originalImage, &original); err != nil {
		return Report{}, err
	}
	// The image is untrusted input: its group assignment must cover the
	// spec's array exactly or the geometry indexing below would be out
	// of bounds.
	if got, want := len(original.Grouping.Assign), spec.Rows*spec.Cols; got != want {
		return Report{}, fmt.Errorf("attack: grouping covers %d oscillators, array has %d", got, want)
	}
	defer func() { _ = t.WriteImage(originalImage) }()

	opts.clampInject(spec.Code)
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
	var gb gbScratch
	sc := armScratch{code: spec.Code, inject: opts.InjectErrors, compose: groupBasedImage}
	for _, group := range members {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				bit, err := decidePairOrder(ctx, t, spec, original.Poly, opts.Dist, budget, &gb, &sc, a, b)
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
		stream = sc.polish(stream, original.Offset)
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

// gbScratch carries the attacker's partition state of one groupbased
// Run: every pair decision rebuilds the same level keys, grouping and
// forced bits, so the run allocates them once. The arms themselves come
// from the run's armScratch.
type gbScratch struct {
	levels    []int
	assign    []int
	predicted []bool
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

// decidePairOrder recovers [residual(b) > residual(a)] for one target
// pair via the two-hypothesis helper manipulation.
func decidePairOrder(ctx context.Context, t Target, spec Spec, origPoly distiller.Poly2D, dist Distinguisher, budget *Budget, gb *gbScratch, sc *armScratch, a, b int) (bool, error) {
	cols, rows := spec.Cols, spec.Rows
	xa, ya := a%cols, a/cols
	xb, yb := b%cols, b/cols

	pattern, levels := levelPlane(gb, cols, rows, xa, ya, xb, yb, groupBasedPatternMHz)
	pairs := designPartition(gb, rows*cols, a, b, levels)

	// The partition covers every oscillator exactly once by
	// construction, and the device's Grouping.Validate checks it on
	// install, so the grouping borrows the scratch assignment directly.
	//
	// The attacker's grouping is groups 0..pairs-1 of two members
	// followed by singletons, so its Kendall stream has one bit per
	// pair, group id's bit at position id: group 0 is the target pair,
	// its bit the hypothesis. A two-member group's Kendall bit is also
	// its compact coding, so the key the device packs is the stream
	// itself.
	grouping := groupbased.Grouping{Assign: gb.assign}
	sc.decide(origPoly, pattern, grouping.Append(sc.layout[:0]))
	for _, hypBit := range [2]bool{false, true} {
		stream := scratchVec(&sc.stream, pairs)
		stream.Set(0, hypBit)
		for id := 1; id < pairs; id++ {
			stream.Set(id, gb.predicted[id])
		}
		if err := sc.add(stream, 0, nil); err != nil {
			return false, err
		}
	}
	best, _, err := dist.BestHypotheses(ctx, t, sc.arms, budget)
	if err != nil {
		return false, err
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
