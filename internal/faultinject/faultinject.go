// Package faultinject is a deterministic, seed-keyed fault-injection
// layer for chaos testing the campaign stack. Production code threads
// named injection points through its failure-prone operations —
// Fire("checkpoint.fsync") before an fsync, Fire("shard.run") at the
// top of a shard attempt — and the points cost one atomic load when no
// plan is armed, so they stay in release builds.
//
// Determinism is the point of the package: a Plan carries a fault seed,
// and whether the nth invocation of a given point faults (and which
// kind — error, panic, or delay) is a pure function of (seed, point
// name, n). Re-arming the same plan replays the same per-point fault
// schedule, so a chaos failure reproduces from its seed alone. The
// interleaving of *different* points still follows goroutine
// scheduling; what is pinned is each point's own fault sequence.
//
// The campaign stack's conventional points:
//
//	checkpoint.append   before writing a checkpoint record
//	checkpoint.fsync    before syncing a checkpoint record to disk
//	shard.run           at the top of each shard execution attempt
//	http.accept         before dispatching an HTTP request
//
// The registry is open — any name is a valid point; unplanned points
// never fault.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Kind is the flavor of an injected fault.
type Kind uint8

const (
	// KindNone means the invocation proceeds unharmed.
	KindNone Kind = iota
	// KindError makes Fire return an *Error wrapping ErrInjected.
	KindError
	// KindPanic makes Fire panic (the caller's recover discipline is
	// exactly what is under test).
	KindPanic
	// KindDelay makes Fire sleep before returning nil.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrInjected is the sentinel all injected errors wrap; callers decide
// with errors.Is whether a failure came from the harness.
var ErrInjected = errors.New("faultinject: injected fault")

// Error is one injected error fault.
type Error struct {
	// Point is the injection point that fired.
	Point string
	// N is the point's zero-based invocation index.
	N uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s invocation %d", e.Point, e.N)
}

// Unwrap ties every injected error to the ErrInjected sentinel.
func (e *Error) Unwrap() error { return ErrInjected }

// Rule shapes the fault schedule of one injection point. Probabilities
// are evaluated in order (error, panic, delay) against a single uniform
// draw per invocation, so PErr+PPanic+PDelay must be <= 1.
type Rule struct {
	// Point names the injection point this rule governs.
	Point string
	// PErr, PPanic, PDelay are per-invocation fault probabilities.
	PErr, PPanic, PDelay float64
	// Delay is the sleep for KindDelay faults; the actual sleep is a
	// deterministic fraction of it in (0, Delay].
	Delay time.Duration
	// After skips the point's first After invocations (lets a job get
	// provably mid-flight before the chaos starts).
	After uint64
	// Limit caps the number of faults the rule fires (0 = unbounded).
	Limit uint64
}

// Plan is one armed chaos schedule: a fault seed plus per-point rules.
type Plan struct {
	// Seed keys every fault decision. The same (Seed, Rules) plan
	// replays the same per-point schedule.
	Seed uint64
	// Rules govern the named points; points without a rule never fault.
	Rules []Rule
}

// PointStats is the observed activity of one injection point.
type PointStats struct {
	Invocations uint64
	Errors      uint64
	Panics      uint64
	Delays      uint64
}

// pointState is the armed runtime of one rule.
type pointState struct {
	rule  Rule
	seed  uint64 // per-point stream base: mix(plan seed, point name)
	n     atomic.Uint64
	fired atomic.Uint64
	stats struct {
		errors, panics, delays atomic.Uint64
	}
}

// injector is one armed plan.
type injector struct {
	points map[string]*pointState
}

// armed holds the active injector; nil means disabled. Fire's fast path
// is this one atomic load.
var armed atomic.Pointer[injector]

var armMu sync.Mutex

// Enable arms a plan, replacing any previous one and resetting all
// invocation counters. It returns an error when a rule is malformed
// (probabilities outside [0,1] or summing past 1, duplicate points).
// Only the chaos tests in campaignd arm plans.
func Enable(p Plan) error {
	inj := &injector{points: make(map[string]*pointState, len(p.Rules))}
	for _, r := range p.Rules {
		if r.Point == "" {
			return fmt.Errorf("faultinject: rule with empty point")
		}
		if _, dup := inj.points[r.Point]; dup {
			return fmt.Errorf("faultinject: duplicate rule for point %q", r.Point)
		}
		if r.PErr < 0 || r.PPanic < 0 || r.PDelay < 0 || r.PErr+r.PPanic+r.PDelay > 1 {
			return fmt.Errorf("faultinject: point %q probabilities out of range", r.Point)
		}
		if r.PDelay > 0 && r.Delay <= 0 {
			return fmt.Errorf("faultinject: point %q has PDelay without a Delay", r.Point)
		}
		inj.points[r.Point] = &pointState{rule: r, seed: mix(p.Seed, r.Point)}
	}
	armMu.Lock()
	armed.Store(inj)
	armMu.Unlock()
	return nil
}

// Disable disarms fault injection; every point returns to the no-op
// fast path. Only the chaos tests in campaignd call it.
func Disable() {
	armMu.Lock()
	armed.Store(nil)
	armMu.Unlock()
}

// Enabled reports whether a plan is armed. The chaos tests in campaignd
// check it.
func Enabled() bool { return armed.Load() != nil }

// Fire evaluates the named injection point once. Disabled, or for a
// point with no rule, it is a single atomic load returning nil. Armed,
// it draws the point's next scheduled fault: returning an *Error,
// panicking with a *Error value, or sleeping then returning nil.
func Fire(point string) error {
	inj := armed.Load()
	if inj == nil {
		return nil
	}
	ps, ok := inj.points[point]
	if !ok {
		return nil
	}
	n := ps.n.Add(1) - 1
	if n < ps.rule.After {
		return nil
	}
	kind, frac := decide(ps.seed, n, ps.rule)
	if kind == KindNone {
		return nil
	}
	if ps.rule.Limit > 0 && ps.fired.Add(1) > ps.rule.Limit {
		return nil
	}
	switch kind {
	case KindError:
		ps.stats.errors.Add(1)
		return &Error{Point: point, N: n}
	case KindPanic:
		ps.stats.panics.Add(1)
		panic(&Error{Point: point, N: n})
	case KindDelay:
		ps.stats.delays.Add(1)
		d := time.Duration(float64(ps.rule.Delay) * frac)
		if d <= 0 {
			d = 1
		}
		time.Sleep(d)
	}
	return nil
}

// decide is the pure fault function: (point stream seed, invocation
// index, rule) → (kind, uniform fraction for delay scaling). One
// StreamSeed derivation yields both draws, so the schedule is exactly
// replayable.
func decide(seed, n uint64, r Rule) (Kind, float64) {
	h := rng.StreamSeed(seed, n)
	u := float64(h>>11) / (1 << 53)
	frac := float64(mixU64(h)>>11) / (1 << 53)
	switch {
	case u < r.PErr:
		return KindError, frac
	case u < r.PErr+r.PPanic:
		return KindPanic, frac
	case u < r.PErr+r.PPanic+r.PDelay:
		return KindDelay, frac
	default:
		return KindNone, frac
	}
}

// Stats snapshots every armed point's activity (nil when disabled).
// Points are keyed by name; the map is a copy. The chaos tests in
// campaignd read it.
func Stats() map[string]PointStats {
	inj := armed.Load()
	if inj == nil {
		return nil
	}
	out := make(map[string]PointStats, len(inj.points))
	for name, ps := range inj.points {
		out[name] = PointStats{
			Invocations: ps.n.Load(),
			Errors:      ps.stats.errors.Load(),
			Panics:      ps.stats.panics.Load(),
			Delays:      ps.stats.delays.Load(),
		}
	}
	return out
}

// Points lists the armed injection points, sorted (nil when disabled).
// The chaos tests in campaignd read it.
func Points() []string {
	inj := armed.Load()
	if inj == nil {
		return nil
	}
	out := make([]string, 0, len(inj.points))
	for name := range inj.points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// mix folds a point name into the plan seed (FNV-1a over the name,
// xored into the seed) so distinct points get independent streams.
func mix(seed uint64, point string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= prime64
	}
	return seed ^ h
}

// mixU64 is one SplitMix64 finalization round, used to derive the
// secondary (delay-scaling) draw from the primary hash.
func mixU64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
