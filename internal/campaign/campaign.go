// Package campaign is the repository's parallel experiment engine: it
// runs any registered experiment across a range of device seeds on a
// bounded pool of worker goroutines and aggregates the per-seed metrics
// into campaign statistics (mean, stddev, Wilson confidence intervals
// for binary outcomes).
//
// Determinism is the design constraint. Every task instance draws its
// randomness from a seed derived purely from (campaign base seed, task
// index) via rng.StreamSeed, and aggregation walks outcomes in task-index
// order — so a campaign's numbers are bit-identical whether it runs on
// one worker or sixty-four. That property is what lets the test suite
// assert -workers=1 and -workers=8 agree exactly, and what makes
// regenerated paper figures trustworthy regardless of the host.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/rng"
)

// Metrics is one task execution's output: named scalar results (a
// recovery indicator, an oracle-query count, a variance, ...).
type Metrics map[string]float64

// Options carries cross-cutting execution options delivered to every
// task instance of a campaign. Tasks read the fields that apply to
// them and ignore the rest; the zero value always means the task's
// legacy default. The engine itself never interprets these — keeping
// it free of experiment-domain dependencies.
type Options struct {
	// Noise names the silicon measurement-noise model attack-backed
	// tasks enroll their devices under. Single-valued: "" and "counter"
	// both select the counter model, and attack-backed tasks reject any
	// other value (the removed "stream" model included) before running.
	Noise string
	// Pool is the worker-confined reuse cache for expensive task state
	// (enrolled devices, attack scratch). Run installs one per worker
	// automatically; direct task.Run callers that execute tasks
	// sequentially (campaignd's shard loop) install their own. Nil is
	// always valid and means "build everything fresh". Never serialized:
	// it is engine plumbing, not campaign configuration.
	Pool *Pool `json:"-"`
}

// Task is one registered experiment entry point behind the uniform
// Spec → Result interface.
type Task struct {
	// Name is the campaign-unique task identifier (kebab-case).
	Name string
	// Desc is a one-line human description.
	Desc string
	// Figure names the paper table/figure the task reproduces ("" for
	// ablations and robustness checks).
	Figure string
	// Binary names the metrics that are success indicators (0/1 by
	// construction); only these get Wilson intervals. Value-sniffing is
	// deliberately not done: a count metric that happens to be all 0s
	// and 1s over a small campaign must not masquerade as a proportion.
	Binary []string
	// Run executes the experiment for one derived seed under the
	// campaign's options, serially: the engine's pool is the only
	// fan-out. The context is the campaign's; long tasks check it
	// between steps so cancellation reaches them mid-task. Run must be
	// safe to call concurrently from multiple goroutines (all
	// repository experiments are: their state is rooted in per-call
	// rng.Sources).
	Run func(ctx context.Context, seed uint64, opt Options) (Metrics, error)
}

// Spec selects a task and shapes one campaign over it.
type Spec struct {
	// Task is the registered task name.
	Task string
	// BaseSeed is the campaign base; task i runs with
	// rng.StreamSeed(BaseSeed, i).
	BaseSeed uint64
	// Seeds is the number of task instances (0 = 1).
	Seeds int
	// Workers bounds the goroutine pool (0 = GOMAXPROCS).
	Workers int
	// Options is handed to every task instance verbatim.
	Options Options
	// Progress, when non-nil, is invoked once per completed task
	// instance with the running totals and streaming partial
	// aggregates. Calls are serialized (never concurrent) but arrive in
	// completion order, not index order — the engine does not stall the
	// pool to sort them. Both the daemon's SSE stream and puf-campaign's
	// -v output hang off this one mechanism. The callback must not
	// block for long: it executes on a worker goroutine.
	Progress func(ProgressEvent) `json:"-"`
}

// ProgressEvent is one Spec.Progress notification.
type ProgressEvent struct {
	// Done and Total count completed vs requested task instances.
	Done, Total int
	// Outcome is the instance that just completed.
	Outcome Outcome
	// Aggregates are the streaming partial aggregates over every
	// outcome completed so far (Wilson intervals computed at read
	// time). They converge to — but mid-run need not bit-match — the
	// final index-ordered aggregates.
	Aggregates []Aggregate
}

// Outcome is one completed task instance.
type Outcome struct {
	Index   int     `json:"index"`
	Seed    uint64  `json:"seed"`
	Metrics Metrics `json:"metrics"`
}

// Aggregate is the campaign-level summary of one metric.
type Aggregate struct {
	Metric string  `json:"metric"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Binary marks 0/1-valued metrics (recovery indicators); for those
	// the Wilson 95% score interval of the success fraction is reported.
	Binary    bool    `json:"binary"`
	Successes int     `json:"successes,omitempty"`
	WilsonLo  float64 `json:"wilson_lo,omitempty"`
	WilsonHi  float64 `json:"wilson_hi,omitempty"`
}

// Result is a completed campaign.
type Result struct {
	Task       string      `json:"task"`
	BaseSeed   uint64      `json:"base_seed"`
	Seeds      int         `json:"seeds"`
	Workers    int         `json:"workers"`
	Outcomes   []Outcome   `json:"outcomes"`
	Aggregates []Aggregate `json:"aggregates"`
}

// ---------------------------------------------------------- registry --

var (
	regMu    sync.RWMutex
	registry = make(map[string]Task)
)

// Register adds a task to the global registry. It panics on an empty or
// duplicate name — both are programming errors caught at init time.
func Register(t Task) {
	if t.Name == "" || t.Run == nil {
		panic("campaign: Register with empty name or nil Run")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[t.Name]; dup {
		panic(fmt.Sprintf("campaign: duplicate task %q", t.Name))
	}
	registry[t.Name] = t
}

// Lookup resolves a registered task by name.
func Lookup(name string) (Task, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := registry[name]
	return t, ok
}

// Tasks returns all registered tasks sorted by name.
func Tasks() []Task {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Task, 0, len(registry))
	for _, t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// -------------------------------------------------------------- pool --

// PanicError is a panic recovered from a task or pool function,
// converted into an ordinary error so one berserk task instance fails
// its campaign cleanly instead of killing the process. The original
// panic value and the goroutine stack at recovery time ride along for
// diagnosis.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (debug.Stack form).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// Call invokes f, converting a panic into a *PanicError. It is the one
// recovery point of the engine: ForEach wraps every pool function with
// it, and campaignd wraps each shard attempt so a retried shard gets a
// fresh recovery scope per attempt.
func Call(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// ErrDrained is returned by ForEach when the drain signal stopped the
// feed before every index ran: the indices that were in flight
// completed normally, the rest were never started.
var ErrDrained = errors.New("campaign: drained before completion")

// ForEach runs fn for every index i in [0, n) on a pool of `workers`
// goroutines (0 or negative = GOMAXPROCS, capped at n). fn also
// receives the stable index of the worker goroutine running it, the
// hook Run uses to hand each worker its own reuse Pool. It is the
// engine's one worker pool: Run fans task instances out over it, and
// campaignd fans out shards.
//
//   - Fail-fast: the first error cancels all pending work; in-flight
//     calls finish. A panicking fn is recovered into a *PanicError and
//     treated as that index's failure. The returned error is the
//     failure with the lowest index, deterministic even when several
//     workers fail concurrently, or the parent context's error when
//     the pool was cancelled from outside.
//   - Drain: when drain is closed, the feed stops handing out new
//     indices while in-flight calls run to completion under a live
//     context (what a SIGTERM'd daemon wants). If indices were left
//     unstarted the pool returns ErrDrained (after any real fn error,
//     which still wins). A nil drain never fires.
func ForEach(ctx context.Context, drain <-chan struct{}, n, workers int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				if poolCtx.Err() != nil {
					return
				}
				if err := Call(func() error { return fn(poolCtx, w, i) }); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}(w)
	}
	fed := 0
feed:
	for i := 0; i < n; i++ {
		// An already-closed drain must feed nothing more, even when a
		// worker is simultaneously ready to receive.
		select {
		case <-drain:
			break feed
		default:
		}
		select {
		case jobs <- i:
			fed++
		case <-poolCtx.Done():
			break feed
		case <-drain:
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("campaign: task %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if fed < n {
		return ErrDrained
	}
	return nil
}

// --------------------------------------------------------------- run --

// Run executes one campaign: Seeds instances of the named task fan out
// over the worker pool, each on its order-independent derived seed, and
// the per-metric aggregates are computed in index order. The aggregate
// numbers are identical for any Workers value.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	task, ok := Lookup(spec.Task)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown task %q (have %s)", spec.Task, taskNames())
	}
	normalize(&spec)

	var (
		progressMu sync.Mutex
		partial    *Partial
	)
	if spec.Progress != nil {
		partial = NewPartial(task.Binary)
	}

	// One reuse pool per worker goroutine (lazily built: the slice is
	// sized for the normalized worker count, ForEach never runs more).
	// A caller-supplied Options.Pool wins — campaigns embedded in a
	// larger pooled context (a daemon shard loop) keep their own.
	pools := make([]*Pool, spec.Workers)
	outcomes := make([]Outcome, spec.Seeds)
	err := ForEach(ctx, nil, spec.Seeds, spec.Workers, func(taskCtx context.Context, w, i int) error {
		opt := spec.Options
		if opt.Pool == nil {
			if pools[w] == nil {
				pools[w] = NewPool()
			}
			opt.Pool = pools[w]
		}
		seed := rng.StreamSeed(spec.BaseSeed, uint64(i))
		m, err := task.Run(taskCtx, seed, opt)
		if err != nil {
			return fmt.Errorf("%s seed %#x: %w", task.Name, seed, err)
		}
		o := Outcome{Index: i, Seed: seed, Metrics: m}
		outcomes[i] = o
		if spec.Progress != nil {
			progressMu.Lock()
			partial.Observe(o)
			ev := ProgressEvent{
				Done:       partial.Done(),
				Total:      spec.Seeds,
				Outcome:    o,
				Aggregates: partial.Aggregates(),
			}
			spec.Progress(ev)
			progressMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Finalize(spec, outcomes)
}

// normalize applies the Spec defaults Run and Finalize share.
func normalize(spec *Spec) {
	if spec.Seeds <= 0 {
		spec.Seeds = 1
	}
	if spec.Workers <= 0 {
		spec.Workers = runtime.GOMAXPROCS(0)
	}
}

// Finalize assembles a completed campaign's Result from its full
// outcome list, exactly as Run would have: the outcomes are folded
// through one Partial in task-index order, so a result finalized from
// sharded or checkpoint-restored outcomes is bit-identical to an
// uninterrupted Run of the same spec. Outcomes must be the complete
// list, indexed 0..len-1 (one per task instance, in index order);
// len(outcomes) must match the normalized spec.Seeds.
func Finalize(spec Spec, outcomes []Outcome) (*Result, error) {
	task, ok := Lookup(spec.Task)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown task %q (have %s)", spec.Task, taskNames())
	}
	normalize(&spec)
	if len(outcomes) != spec.Seeds {
		return nil, fmt.Errorf("campaign: finalize %q with %d outcomes for %d seeds", spec.Task, len(outcomes), spec.Seeds)
	}
	for i, o := range outcomes {
		if o.Index != i {
			return nil, fmt.Errorf("campaign: finalize %q outcome %d carries index %d", spec.Task, i, o.Index)
		}
	}

	p := NewPartial(task.Binary)
	for _, o := range outcomes {
		p.Observe(o)
	}
	return &Result{
		Task:       task.Name,
		BaseSeed:   spec.BaseSeed,
		Seeds:      spec.Seeds,
		Workers:    spec.Workers,
		Outcomes:   outcomes,
		Aggregates: p.Aggregates(),
	}, nil
}

func taskNames() []string {
	ts := Tasks()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// Bool converts a success indicator to the 0/1 metric convention that
// triggers Wilson aggregation.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
