package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

func init() {
	// A deterministic CPU-ish task: a short random walk whose outcome
	// depends on every draw, so any seed or ordering slip shows up.
	Register(Task{
		Name:   "test-walk",
		Desc:   "deterministic random walk (test fixture)",
		Binary: []string{"recovered"},
		Run: func(_ context.Context, seed uint64, _ Options) (Metrics, error) {
			src := rng.New(seed)
			var sum float64
			for i := 0; i < 1000; i++ {
				sum += src.Norm()
			}
			return Metrics{
				"walk-sum":  sum,
				"recovered": Bool(sum > 0),
				// All-zero count metric: must NOT be aggregated as a
				// proportion despite every value being in {0, 1},
				// because it is not declared in Binary.
				"zero-count": 0,
			}, nil
		},
	})
	Register(Task{
		Name: "test-fail-on-odd-seed",
		Desc: "fails for odd derived seeds (test fixture)",
		Run: func(_ context.Context, seed uint64, _ Options) (Metrics, error) {
			if seed%2 == 1 {
				return nil, fmt.Errorf("odd seed %#x", seed)
			}
			return Metrics{"ok": 1}, nil
		},
	})
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(context.Background(), Spec{
			Task: "test-walk", BaseSeed: 1234, Seeds: 32, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial.Outcomes, parallel.Outcomes) {
		t.Fatal("per-seed outcomes differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(serial.Aggregates, parallel.Aggregates) {
		t.Fatalf("aggregates differ:\n1 worker: %+v\n8 workers: %+v",
			serial.Aggregates, parallel.Aggregates)
	}
	// The declared binary metric must carry a Wilson interval; the
	// real-valued metric and the undeclared 0-valued count must not.
	for _, a := range serial.Aggregates {
		switch a.Metric {
		case "recovered":
			if !a.Binary || a.WilsonLo >= a.WilsonHi {
				t.Fatalf("recovered aggregate not Wilson-summarized: %+v", a)
			}
		case "walk-sum", "zero-count":
			if a.Binary {
				t.Fatalf("%s misclassified as binary: %+v", a.Metric, a)
			}
		}
	}
}

func TestRunErrorPropagatesAndFailsFast(t *testing.T) {
	_, err := Run(context.Background(), Spec{
		Task: "test-fail-on-odd-seed", BaseSeed: 7, Seeds: 64, Workers: 4,
	})
	if err == nil {
		t.Fatal("expected an error from the failing task")
	}
	if !strings.Contains(err.Error(), "odd seed") {
		t.Fatalf("error lost the task's cause: %v", err)
	}
	if !strings.Contains(err.Error(), "test-fail-on-odd-seed") {
		t.Fatalf("error lost the task name: %v", err)
	}
}

func TestRunUnknownTask(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Task: "no-such-task"}); err == nil {
		t.Fatal("expected unknown-task error")
	}
}

func TestForEachCancellationMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, nil, 1000, 2, func(ctx context.Context, _, i int) error {
			started.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil
		})
	}()
	// Let a couple of tasks start, then cancel the campaign.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the feed: %d tasks started", n)
	}
}

func TestForEachFailFastSkipsPendingWork(t *testing.T) {
	var ran atomic.Int64
	err := ForEach(context.Background(), nil, 10000, 2, func(_ context.Context, _, i int) error {
		ran.Add(1)
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "task 3") {
		t.Fatalf("error does not name the failing index: %v", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Fatalf("fail-fast did not cancel pending work: %d tasks ran", n)
	}
}

// Every index runs exactly once, on a worker index in [0, workers).
func TestForEachCompletesAllWithoutError(t *testing.T) {
	const n, workers = 257, 8
	var ran, badWorker atomic.Int64
	runs := make([]atomic.Int64, n)
	if err := ForEach(context.Background(), nil, n, workers, func(_ context.Context, w, i int) error {
		ran.Add(1)
		runs[i].Add(1)
		if w < 0 || w >= workers {
			badWorker.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	if badWorker.Load() != 0 {
		t.Fatalf("%d calls got a worker index outside [0, %d)", badWorker.Load(), workers)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	Register(Task{Name: "test-walk", Run: func(context.Context, uint64, Options) (Metrics, error) { return nil, nil }})
}

// A panicking task must fail its campaign as an ordinary error carrying
// the panic value and stack — never crash the process. This is the
// proof behind the daemon's panic-isolation guarantee: campaignd's
// worker pool and campaign.Run both funnel through the same recovery
// scope (Call).
func TestPanickingTaskFailsCampaignCleanly(t *testing.T) {
	Register(Task{
		Name: "test-panic-on-third",
		Desc: "panics on every third index (test fixture)",
		Run: func(_ context.Context, seed uint64, _ Options) (Metrics, error) {
			if seed%3 == 0 {
				panic(fmt.Sprintf("berserk task, seed %#x", seed))
			}
			return Metrics{"ok": 1}, nil
		},
	})
	_, err := Run(context.Background(), Spec{Task: "test-panic-on-third", BaseSeed: 5, Seeds: 40, Workers: 4})
	if err == nil {
		t.Fatal("campaign with panicking task reported success")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PanicError: %v", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "berserk task") {
		t.Fatalf("panic value lost: %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "goroutine") {
		t.Fatal("panic stack not captured")
	}
}

// Call converts panics to errors and passes ordinary returns through.
func TestCallRecoversPanics(t *testing.T) {
	if err := Call(func() error { return nil }); err != nil {
		t.Fatalf("clean call returned %v", err)
	}
	sentinel := errors.New("boom")
	if err := Call(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error not passed through: %v", err)
	}
	err := Call(func() error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("panic not converted: %v", err)
	}
}

// ForEach drain: a drain signal stops the feed, lets in-flight indices
// finish, and reports ErrDrained when indices never started; a drain
// that arrives after the last index was fed changes nothing.
func TestForEachDrainStopsFeedingButFinishesInFlight(t *testing.T) {
	drain := make(chan struct{})
	started := make(chan int)
	release := make(chan struct{})
	var completed atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- ForEach(context.Background(), drain, 16, 2, func(ctx context.Context, _, i int) error {
			started <- i
			<-release
			completed.Add(1)
			return nil
		})
	}()
	// Two indices in flight; drain, then let them finish.
	<-started
	<-started
	close(drain)
	close(release)
	err := <-done
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained", err)
	}
	if got := completed.Load(); got != 2 {
		t.Fatalf("completed %d in-flight indices, want 2", got)
	}

	// Already-closed drain: nothing runs at all.
	var ran atomic.Int64
	err = ForEach(context.Background(), drain, 8, 4, func(ctx context.Context, _, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, ErrDrained) || ran.Load() != 0 {
		t.Fatalf("pre-drained pool: err=%v ran=%d", err, ran.Load())
	}

	// A nil drain never fires: everything runs, no error.
	var all atomic.Int64
	if err := ForEach(context.Background(), nil, 8, 4, func(ctx context.Context, _, i int) error {
		all.Add(1)
		return nil
	}); err != nil || all.Load() != 8 {
		t.Fatalf("nil drain: err=%v ran=%d", err, all.Load())
	}
}
