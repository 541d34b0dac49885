package attack

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/groupbased"
)

// TestPlanTableConcurrentFirstUse has several goroutines race to the
// first use of one geometry's slot set and of every plan in it, as
// campaign workers starting the groupbased attack at once do. Under
// -race it checks the publication; every goroutine must get the same
// slot set and the same plan pointers, and each plan must hold what a
// serial levelPlane + partition gives for its targets.
func TestPlanTableConcurrentFirstUse(t *testing.T) {
	const rows, cols, goroutines = 4, 10, 4
	const n = rows * cols
	var table planTable[geometry, pairPlan]
	got := make([]map[int]*pairPlan, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = map[int]*pairPlan{}
			slots := table.slots(geometry{rows, cols}, n*n)
			// Each goroutine walks the targets in its own order: its
			// stride is prime to n*n = 1600.
			stride := [goroutines]int{1, 3, 7, 11}[g]
			for i := range n * n {
				ab := (i*stride + g) % (n * n)
				if a, b := ab/n, ab%n; a < b {
					got[g][ab] = pairPlanFor(slots, rows, cols, a, b)
				}
			}
		}()
	}
	wg.Wait()
	slots := table.slots(geometry{rows, cols}, n*n)
	for a := range n {
		for b := a + 1; b < n; b++ {
			plan := slots.plans[a*n+b].Load()
			if plan == nil {
				t.Fatalf("pair (%d,%d): no plan published", a, b)
			}
			pattern, levels := levelPlane(cols, rows, a%cols, a/cols, b%cols, b/cols, groupBasedPatternMHz)
			assign, predicted := partition(n, a, b, levels)
			if !slices.Equal(plan.pattern.Beta, pattern.Beta) ||
				!slices.Equal(plan.layout, (&groupbased.Grouping{Assign: assign}).Append(nil)) ||
				!slices.Equal(plan.predicted, predicted) {
				t.Fatalf("pair (%d,%d): the plan differs from a serial build", a, b)
			}
		}
	}
	for g := range goroutines {
		if len(got[g]) != n*(n-1)/2 {
			t.Fatalf("goroutine %d looked up %d plans", g, len(got[g]))
		}
		for ab, p := range got[g] {
			if p != slots.plans[ab].Load() {
				t.Fatalf("goroutine %d holds a plan for (%d,%d) that was not published", g, ab/n, ab%n)
			}
		}
	}
}
