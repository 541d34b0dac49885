package attack

import (
	"cmp"
	"context"
	"fmt"
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
	sc := armScratch{code: spec.Code, inject: opts.InjectErrors, compose: groupBasedImage}
	plans := pairPlanSlots(spec.Rows, spec.Cols)
	for _, group := range members {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				plan := pairPlanFor(plans, spec.Rows, spec.Cols, a, b)
				bit, err := decidePairOrder(ctx, t, original.Poly, opts.Dist, budget, &sc, plan)
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

// geometry keys the plan tables of the attacks that take the array's
// shape from the spec.
type geometry struct{ rows, cols int }

// pairPlan is the interned plan of one groupbased pair decision: the
// level plane through both targets, the attacker's grouping, encoded,
// and the forced Kendall bit of every two-member group (predicted[0],
// the target pair's, is the hypothesis and unused). Its group count is
// len(predicted). Immutable once published.
type pairPlan struct {
	pattern   distiller.Poly2D
	layout    []byte
	predicted []bool
}

// pairPlans holds the pair plans per geometry.
var pairPlans planTable[geometry, pairPlan]

// pairPlanSlots returns the pair plans of a rows x cols array, slot
// a*n+b for targets a, b of its n oscillators.
func pairPlanSlots(rows, cols int) *planSlots[pairPlan] {
	n := rows * cols
	return pairPlans.slots(geometry{rows, cols}, n*n)
}

// pairPlanFor returns the plan of the decision on targets (a, b),
// building it with levelPlane and partition on first use.
func pairPlanFor(plans *planSlots[pairPlan], rows, cols, a, b int) *pairPlan {
	return plans.get(a*rows*cols+b, func() *pairPlan {
		pattern, levels := levelPlane(cols, rows, a%cols, a/cols, b%cols, b/cols, groupBasedPatternMHz)
		assign, predicted := partition(rows*cols, a, b, levels)
		return &pairPlan{
			pattern:   pattern,
			layout:    (&groupbased.Grouping{Assign: assign}).Append(nil),
			predicted: predicted,
		}
	})
}

// decidePairOrder recovers [residual(b) > residual(a)] for the target
// pair of plan via the two-hypothesis helper manipulation.
func decidePairOrder(ctx context.Context, t Target, origPoly distiller.Poly2D, dist Distinguisher, budget *Budget, sc *armScratch, plan *pairPlan) (bool, error) {
	if err := pairArms(sc, origPoly, plan); err != nil {
		return false, err
	}
	best, _, err := dist.BestHypotheses(ctx, t, sc.arms, budget)
	if err != nil {
		return false, err
	}
	return best == 1, nil
}

// pairArms builds the decision's two arms into sc. The attacker's
// grouping is groups 0..pairs-1 of two members followed by singletons,
// so its Kendall stream has one bit per pair, group id's bit at
// position id: group 0 is the target pair, its bit the hypothesis. A
// two-member group's Kendall bit is also its compact coding, so the
// key the device packs is the stream itself.
func pairArms(sc *armScratch, origPoly distiller.Poly2D, plan *pairPlan) error {
	sc.decide(origPoly, plan.pattern, plan.layout)
	for _, hypBit := range [2]bool{false, true} {
		stream := scratchVec(&sc.stream, len(plan.predicted))
		stream.Set(0, hypBit)
		for id := 1; id < len(plan.predicted); id++ {
			stream.Set(id, plan.predicted[id])
		}
		if err := sc.add(stream, 0, nil); err != nil {
			return err
		}
	}
	return nil
}

// levelPlane returns the steep plane whose level lines pass through both
// targets, together with the integer level key of every oscillator
// (equal keys = equal pattern values, exactly).
func levelPlane(cols, rows, xa, ya, xb, yb int, amp float64) (distiller.Poly2D, []int) {
	pattern := distiller.PerpendicularPlane(xa, ya, xb, yb, amp)
	nx, ny := -(yb - ya), xb-xa
	levels := make([]int, rows*cols)
	for i := range levels {
		x, y := i%cols, i/cols
		levels[i] = nx*x + ny*y
	}
	return pattern, levels
}

// partition builds the attacker's partition of n oscillators: group 0
// is the target pair (a, b); the remaining oscillators are paired across
// DISTINCT level lines so every forced pair's order is dominated by the
// pattern; oscillators left over become singletons. assign holds every
// oscillator's group id, and predicted[id] the forced Kendall bit of
// two-member group id: with labels ordered by ascending RO index, the
// bit is 1 when the higher-index member has the LOWER pattern level (its
// distilled residual is larger). len(predicted) is the number of
// two-member groups p: ids 0..p-1 are the pairs, ids p.. the singletons.
//
// Pairing repeatedly takes the highest remaining index of the two
// currently largest level classes, ties going to the lower level; this
// admits a perfect rainbow matching whenever no class holds more than
// half the remainder, and gracefully leaves singletons otherwise. Each
// pair rescans the classes, which is cheap enough for a plan built once.
func partition(n, a, b int, levels []int) (assign []int, predicted []bool) {
	assign = make([]int, n)
	predicted = make([]bool, n)
	var ros []int
	for i := range n {
		if i != a && i != b {
			ros = append(ros, i)
		}
	}
	// One class per level, in ascending level and ascending index within
	// a level; a class gives up its highest index first.
	slices.SortStableFunc(ros, func(x, y int) int { return cmp.Compare(levels[x], levels[y]) })
	var classes [][]int
	for at := 0; at < len(ros); {
		end := at
		for end < len(ros) && levels[ros[end]] == levels[ros[at]] {
			end++
		}
		classes = append(classes, ros[at:end])
		at = end
	}
	id := 1
	for {
		c1, c2 := -1, -1
		for c, class := range classes {
			switch {
			case len(class) == 0:
			case c1 == -1 || len(class) > len(classes[c1]):
				c1, c2 = c, c1
			case c2 == -1 || len(class) > len(classes[c2]):
				c2 = c
			}
		}
		if c2 == -1 {
			break
		}
		last1, last2 := len(classes[c1])-1, len(classes[c2])-1
		ro1, ro2 := classes[c1][last1], classes[c2][last2]
		classes[c1], classes[c2] = classes[c1][:last1], classes[c2][:last2]
		assign[ro1], assign[ro2] = id, id
		// Canonical label order is ascending RO index; label B (the
		// higher index) precedes when its pattern value is lower.
		low, high := min(ro1, ro2), max(ro1, ro2)
		predicted[id] = levels[high] < levels[low]
		id++
	}
	predicted = predicted[:id]
	// Leftovers become singleton groups, by level then index.
	for _, class := range classes {
		for _, ro := range class {
			assign[ro] = id
			id++
		}
	}
	return assign, predicted
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
