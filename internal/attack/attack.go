// Package attack defines the repository's oracle-agnostic attack
// surface. The paper's Fig. 5 insight is that all four key-recovery
// attacks share one statistical framework; this package completes the
// decoupling by pinning the minimal oracle every attack actually uses —
// read/write the public helper NVM image and observe key-reconstruction
// failures — behind the Target interface, and every attack behind one
// Attack interface with a unified Options/Report shape and a name-keyed
// registry.
//
// Layering:
//
//	Attack (seqpair, tempco, groupbased, masking, chain)
//	   │ Run(ctx, Target, Options) → Report
//	   ▼
//	Target — helperdata.Image read/write + failure oracle + query count
//	   │
//	   └─ device adapters (in-process simulated devices)
//
// Anything that can serve the Target interface — an in-process simulator,
// a lab bench over a serial link, a remote fleet — runs every registered
// attack unchanged.
//
// Inside the package each mechanism exists once. image.go is the only
// place that names a helper NVM section: attacks and adapters compose
// and parse images through it. Every arm lives in a pooled armSlot
// (arm.go): one image, rewritten for each decision, and the Hypothesis
// that installs it. The arm builder (armScratch) makes every arm of the
// reprogrammed-key attacks (groupbased, masking, chain): it
// superimposes the decision's pattern on the enrolled polynomial,
// crafts each hypothesis's code offset with the common error offset
// folded in, and hands out binding slots, which write the image and
// bind the predicted key. The attacks whose observable is the enrolled
// key (seqpair, tempco) rewrite two plain write slots per decision.
// Options.clampInject resolves the common offset's size for all five.
package attack

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/helperdata"
)

// Spec is the public datasheet of the device under attack: everything
// the attacker legitimately knows without touching the oracle. The
// helper NVM content itself is NOT part of the spec — attacks read it
// through Target.ReadImage.
type Spec struct {
	// Construction names the deployed scheme; it must match the Name of
	// the attack being run (Run rejects a mismatch).
	Construction string
	// Rows, Cols give the RO array geometry (row-major index i sits at
	// x = i % Cols, y = i / Cols). Zero when an attack needs no
	// geometry (seqpair, tempco).
	Rows, Cols int
	// Code is the deployed ECC (paper §VI: a public design parameter).
	Code ecc.Code
	// AmbientC is the current operating temperature the oracle runs at.
	AmbientC float64
}

// Target is the minimal failure oracle shared by all attacks: full
// read/write access to the public helper NVM image, one observable bit
// per reconstruction, and the running query count (the attack-cost
// metric every experiment reports).
type Target interface {
	// Spec returns the public device specification.
	Spec() Spec
	// ReadImage returns the current helper NVM content.
	ReadImage() (*helperdata.Image, error)
	// WriteImage replaces the helper NVM. The device applies its
	// structural sanity checks and rejects malformed images; the
	// paper's attacks pass these checks by design.
	WriteImage(*helperdata.Image) error
	// Query triggers one key reconstruction and reports FAILURE (true =
	// the key-dependent application misbehaved).
	Query() bool
	// Queries returns the number of oracle queries so far.
	Queries() int
}

// KeyBinder is implemented by targets whose observable follows the
// paper's reprogrammed-key scenario: the attacker binds the application
// to a predicted key (data encrypted under it) before querying.
type KeyBinder interface {
	BindKey(key bitvec.Vector)
}

// Options is the unified attack configuration.
type Options struct {
	// Dist selects and tunes the hypothesis distinguisher; the zero
	// value behaves as DefaultDistinguisher (see
	// Distinguisher.normalized).
	Dist Distinguisher
	// InjectErrors is the common deterministic error offset; 0 means
	// the code's full radius t, the most aggressive choice.
	InjectErrors int
	// QueryBudget caps total oracle queries; 0 means unlimited. When
	// the budget runs out mid-attack, Run returns ErrBudgetExhausted.
	QueryBudget int
	// Progress, when non-nil, receives phase-granular notifications.
	// It is called from the attack's goroutine and must be cheap.
	Progress func(Progress)
}

// clampInject resolves InjectErrors against the deployed code's radius
// t: unset, negative or above t means t.
func (o *Options) clampInject(code ecc.Code) {
	if o.InjectErrors <= 0 || o.InjectErrors > code.T() {
		o.InjectErrors = code.T()
	}
}

// Progress is one attack progress notification.
type Progress struct {
	Attack string
	Phase  string
	// Done/Total count phase-specific work items (pairs tested,
	// boundaries swept); Total is 0 when unknown up front.
	Done, Total int
	// Queries is the oracle cost so far.
	Queries int
}

// PhaseStat is the per-phase cost breakdown of a completed attack.
type PhaseStat struct {
	Name    string
	Queries int
	Elapsed time.Duration
}

// Report is the unified attack outcome.
type Report struct {
	// Attack is the registered name of the attack that produced this.
	Attack string
	// Key is the recovered key; empty when the attack recovers only
	// relations (tempco).
	Key bitvec.Vector
	// Ambiguous marks a key recovered only up to an unresolvable
	// complement (seqpair over a code containing the all-ones word).
	Ambiguous bool
	// Queries is the total oracle cost, calibration included.
	Queries int
	// Elapsed is the attack wall time.
	Elapsed time.Duration
	// Phases is the per-phase breakdown, in execution order.
	Phases []PhaseStat
	// Details holds the attack-specific payload: SeqPairDetails,
	// TempCoDetails, GroupBasedDetails, MaskingDetails, ChainDetails.
	Details any
}

// Attack is one registered key-recovery attack.
type Attack interface {
	// Name is the registry key (kebab-case).
	Name() string
	// Description is a one-line human summary.
	Description() string
	// Run executes the attack against the target. Implementations honor
	// ctx cancellation and opts.QueryBudget at query granularity, and
	// leave the target's helper NVM as they found it.
	Run(ctx context.Context, t Target, opts Options) (Report, error)
}

// ErrBudgetExhausted reports that opts.QueryBudget ran out mid-attack.
var ErrBudgetExhausted = errors.New("attack: query budget exhausted")

// Budget meters oracle queries. The zero value and the nil pointer are
// both unlimited. It is safe for concurrent use, so a caller may share
// one budget across goroutines; the attacks themselves spend it from
// one goroutine.
type Budget struct {
	limited   bool
	remaining atomic.Int64
}

// NewBudget returns a budget of n queries; n <= 0 means unlimited.
func NewBudget(n int) *Budget {
	b := &Budget{}
	if n > 0 {
		b.limited = true
		b.remaining.Store(int64(n))
	}
	return b
}

// Spend reserves n queries, or returns ErrBudgetExhausted without
// spending when fewer remain.
func (b *Budget) Spend(n int) error {
	if b == nil || !b.limited {
		return nil
	}
	for {
		cur := b.remaining.Load()
		if cur < int64(n) {
			return ErrBudgetExhausted
		}
		if b.remaining.CompareAndSwap(cur, cur-int64(n)) {
			return nil
		}
	}
}

// ---------------------------------------------------------- registry --

var (
	regMu    sync.RWMutex
	registry = make(map[string]Attack)
)

// Register adds an attack to the global registry; it panics on an empty
// or duplicate name (programming errors caught at init time).
func Register(a Attack) {
	if a == nil || a.Name() == "" {
		panic("attack: Register with nil attack or empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[a.Name()]; dup {
		panic(fmt.Sprintf("attack: duplicate attack %q", a.Name()))
	}
	registry[a.Name()] = a
}

// Lookup resolves a registered attack by name.
func Lookup(name string) (Attack, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// Names returns the registered attack names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Attacks returns all registered attacks sorted by name.
func Attacks() []Attack {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Attack, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Run dispatches one attack by registry name. It is the one place that
// checks the target's construction against the attack: a mismatch is
// rejected before the attack reads the image or spends a query. A run
// that fails reports only what it observed: no key, and the queries it
// made.
func Run(ctx context.Context, name string, t Target, opts Options) (Report, error) {
	a, ok := Lookup(name)
	if !ok {
		return Report{}, fmt.Errorf("attack: unknown attack %q (have %v)", name, Names())
	}
	if c := t.Spec().Construction; c != name {
		return Report{}, fmt.Errorf("attack: target construction %q, want %q", c, name)
	}
	// Normalized once here, the distinguisher makes its sequential test
	// once per run rather than once per decision.
	opts.Dist = opts.Dist.normalized()
	start := t.Queries()
	rep, err := a.Run(ctx, t, opts)
	if err != nil {
		return Report{Attack: name, Queries: t.Queries() - start}, err
	}
	return rep, nil
}

// ------------------------------------------------------------ tracer --

// tracer accumulates the Report's phase breakdown and emits progress.
type tracer struct {
	attack  string
	t       Target
	opts    Options
	phases  []PhaseStat
	current string
	start   time.Time
	q0      int
	began   time.Time
}

func newTracer(attackName string, t Target, opts Options) *tracer {
	return &tracer{attack: attackName, t: t, opts: opts, began: time.Now()}
}

// phase closes the current phase (if any) and opens a new one.
func (tr *tracer) phase(name string) {
	tr.close()
	tr.current = name
	tr.start = time.Now()
	tr.q0 = tr.t.Queries()
	tr.step(name, 0, 0)
}

// step emits a progress notification for the current phase.
func (tr *tracer) step(phase string, done, total int) {
	if tr.opts.Progress != nil {
		tr.opts.Progress(Progress{Attack: tr.attack, Phase: phase, Done: done, Total: total, Queries: tr.t.Queries()})
	}
}

func (tr *tracer) close() {
	if tr.current == "" {
		return
	}
	tr.phases = append(tr.phases, PhaseStat{
		Name:    tr.current,
		Queries: tr.t.Queries() - tr.q0,
		Elapsed: time.Since(tr.start),
	})
	tr.current = ""
}

// report finalizes the common Report fields.
func (tr *tracer) report(startQueries int) Report {
	tr.close()
	return Report{
		Attack:  tr.attack,
		Queries: tr.t.Queries() - startQueries,
		Elapsed: time.Since(tr.began),
		Phases:  tr.phases,
	}
}
