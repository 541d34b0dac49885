package campaign

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/stats"
)

func runWalk(t *testing.T, spec Spec) *Result {
	t.Helper()
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// aggregatesAlmostEqual compares two aggregates of the same outcomes:
// everything integer-exact must match exactly; the floating-point
// moments must agree to within rounding noise.
func aggregatesAlmostEqual(t *testing.T, streaming, batch []Aggregate) {
	t.Helper()
	if len(streaming) != len(batch) {
		t.Fatalf("aggregate count %d != %d", len(streaming), len(batch))
	}
	for i, s := range streaming {
		b := batch[i]
		if s.Metric != b.Metric || s.N != b.N || s.Binary != b.Binary ||
			s.Min != b.Min || s.Max != b.Max || s.Successes != b.Successes ||
			s.WilsonLo != b.WilsonLo || s.WilsonHi != b.WilsonHi {
			t.Fatalf("aggregate %q: streaming %+v != batch %+v", s.Metric, s, b)
		}
		if math.Abs(s.Mean-b.Mean) > 1e-9*math.Max(1, math.Abs(b.Mean)) {
			t.Fatalf("aggregate %q: mean %v != %v", s.Metric, s.Mean, b.Mean)
		}
		if math.Abs(s.Stddev-b.Stddev) > 1e-9*math.Max(1, b.Stddev) {
			t.Fatalf("aggregate %q: stddev %v != %v", s.Metric, s.Stddev, b.Stddev)
		}
	}
}

// Finalize's aggregates must match a two-pass batch reference over the
// same outcomes: exactly for everything but the second moment (Welford
// vs two-pass), which agrees to rounding noise. In particular Mean is
// bit-identical: both are sum/n over the same addition order.
func TestPartialSequentialMatchesBatchAggregate(t *testing.T) {
	res := runWalk(t, Spec{Task: "test-walk", BaseSeed: 99, Seeds: 48, Workers: 4})
	task, _ := Lookup("test-walk")
	declared := map[string]bool{}
	for _, name := range task.Binary {
		declared[name] = true
	}

	var batch []Aggregate
	for _, name := range []string{"recovered", "walk-sum", "zero-count"} {
		var vals []float64
		for _, o := range res.Outcomes {
			vals = append(vals, o.Metrics[name])
		}
		a := Aggregate{
			Metric: name, N: len(vals), Binary: declared[name],
			Mean: stats.Mean(vals), Stddev: stats.Stddev(vals),
			Min: slices.Min(vals), Max: slices.Max(vals),
		}
		if a.Binary {
			for _, v := range vals {
				a.Successes += int(v)
			}
			a.WilsonLo, a.WilsonHi = stats.WilsonInterval(a.Successes, a.N, 0.95)
		}
		batch = append(batch, a)
	}
	aggregatesAlmostEqual(t, res.Aggregates, batch)
	for i, s := range res.Aggregates {
		if s.Mean != batch[i].Mean {
			t.Fatalf("aggregate %q: mean %v not bit-identical to batch %v", s.Metric, s.Mean, batch[i].Mean)
		}
	}
}

// A metric declared binary but observed outside {0,1} is non-binary for
// good, whichever order the values arrive in.
func TestPartialDemotesBinary(t *testing.T) {
	for _, order := range [][]float64{{1, 0.5}, {0.5, 1}} {
		p := NewPartial([]string{"m"})
		for i, v := range order {
			p.Observe(Outcome{Index: i, Metrics: Metrics{"m": v}})
		}
		aggs := p.Aggregates()
		if len(aggs) != 1 || aggs[0].Binary {
			t.Fatalf("order %v: demotion lost: %+v", order, aggs)
		}
		if aggs[0].Successes != 0 {
			t.Fatalf("order %v: demoted metric kept successes: %+v", order, aggs[0])
		}
	}
}

// Spec.Progress must fire once per task instance, serialized, with
// monotonically increasing Done and partial aggregates that end at the
// final aggregate: exactly with one worker, which observes in index
// order as Finalize does, and to rounding noise in completion order.
func TestRunProgressCallback(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var (
			mu     sync.Mutex
			events []ProgressEvent
		)
		res := runWalk(t, Spec{
			Task: "test-walk", BaseSeed: 5, Seeds: 32, Workers: workers,
			Progress: func(ev ProgressEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			},
		})
		if len(events) != 32 {
			t.Fatalf("workers=%d: %d progress events, want 32", workers, len(events))
		}
		seen := make(map[int]bool)
		for i, ev := range events {
			if ev.Done != i+1 || ev.Total != 32 {
				t.Fatalf("workers=%d: event %d has Done=%d Total=%d", workers, i, ev.Done, ev.Total)
			}
			if seen[ev.Outcome.Index] {
				t.Fatalf("workers=%d: outcome %d delivered twice", workers, ev.Outcome.Index)
			}
			seen[ev.Outcome.Index] = true
		}
		// The last event's streaming aggregates cover every outcome.
		last := events[len(events)-1].Aggregates
		if workers == 1 {
			if !reflect.DeepEqual(last, res.Aggregates) {
				t.Fatalf("workers=1: last progress aggregates %+v != result %+v", last, res.Aggregates)
			}
			continue
		}
		aggregatesAlmostEqual(t, last, res.Aggregates)
	}
}

// Finalize over the outcome list of a Run must reproduce the Run's
// Result byte for byte — the identity that lets the daemon rebuild a
// one-shot-identical result from checkpointed shards.
func TestFinalizeReproducesRun(t *testing.T) {
	spec := Spec{Task: "test-walk", BaseSeed: 2024, Seeds: 40, Workers: 4}
	res := runWalk(t, spec)
	re, err := Finalize(spec, res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	got, _ := json.Marshal(re)
	if string(got) != string(want) {
		t.Fatalf("Finalize result differs from Run:\n%s\nvs\n%s", got, want)
	}
}

func TestFinalizeRejectsBadOutcomeLists(t *testing.T) {
	spec := Spec{Task: "test-walk", BaseSeed: 1, Seeds: 4}
	res := runWalk(t, Spec{Task: "test-walk", BaseSeed: 1, Seeds: 4})

	if _, err := Finalize(spec, res.Outcomes[:3]); err == nil {
		t.Fatal("expected error for truncated outcome list")
	}
	swapped := make([]Outcome, len(res.Outcomes))
	copy(swapped, res.Outcomes)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := Finalize(spec, swapped); err == nil {
		t.Fatal("expected error for out-of-order outcome list")
	}
	if _, err := Finalize(Spec{Task: "no-such-task"}, nil); err == nil {
		t.Fatal("expected unknown-task error")
	}
}
