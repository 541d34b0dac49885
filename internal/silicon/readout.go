package silicon

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// Readout is the per-query measurement of a device whose response bits
// are pairwise comparisons of compared values: measured frequencies,
// optionally minus a per-oscillator offset such as a distiller surface.
// Noise is drawn only for the oscillators whose noise can change a
// comparison; every other oscillator reads its noise-free value. Every
// comparison outcome (> and ==) equals the one a full noisy measurement
// of the same sweep gives, and the sweep counter advances identically.
//
// The argument is an interval per oscillator. A variate z satisfies
// |z| < rng.NormMax, so with s = fl(σ·NormMax) every rounding of
// base + σz lies in [base − s, base + s] after rounding. Subtracting an
// offset is monotone, so the compared value v = (base + σz) − off lies
// in [lo, hi] = [(base − s) − off, (base + s) − off], and so does the
// noise-free base − off. When lo_i > hi_j (or lo_j > hi_i) the
// outcome of comparing i with j is the same for every draw; otherwise
// both are noisy and measured exactly. A non-finite bound (a NaN or
// infinite offset) never separates.
//
// A device keeps one Readout per oracle. Per query it calls Stale; when
// that reports true it calls Compare for every pair its bits derive
// from and then Split, and finally Measure. The noise-free values are
// kept per environment and offsets, the noisy set until Invalidate;
// SetOffsets and Reset drop both. The zero value is ready; not
// concurrency-safe.
type Readout struct {
	a       *Array
	env     Environment
	off     []float64
	baseOK  bool
	valsOK  bool
	splitOK bool
	// vals holds base | lo | hi | cur, N values each: the noise-free
	// frequencies at env, every oscillator's compared-value interval,
	// and the compared values Measure returns (noise-free except at the
	// noisy oscillators).
	vals []float64
	// mark flags the noisy oscillators, which noisy lists ascending.
	mark  []bool
	noisy []int
}

// Reset drops everything derived from the array's contents. Required
// when the array was re-drawn under the same pointer
// (Array.Remanufactured), which no other check can see.
func (r *Readout) Reset() { r.baseOK = false }

// SetOffsets makes the compared values the measured frequencies minus
// off (nil for none; length N otherwise). Call it again whenever off's
// contents change.
func (r *Readout) SetOffsets(off []float64) { r.off, r.valsOK = off, false }

// Invalidate drops the noisy set: the compared pairs changed.
func (r *Readout) Invalidate() { r.splitOK = false }

// Stale readies a query of a at env and reports whether the noisy set
// must be rebuilt, in which case the caller compares every pair and
// calls Split before Measure.
func (r *Readout) Stale(a *Array, env Environment) bool {
	n := a.N()
	if !r.baseOK || r.a != a || r.env != env || len(r.mark) != n {
		if cap(r.vals) < 4*n {
			r.vals = make([]float64, 4*n)
			r.mark = make([]bool, n)
			r.noisy = make([]int, 0, n)
		}
		r.vals, r.mark, r.noisy = r.vals[:4*n], r.mark[:n], r.noisy[:0]
		clear(r.mark)
		a.TrueFreqInto(r.vals[:n], env)
		r.a, r.env, r.baseOK, r.valsOK = a, env, true, false
	}
	if !r.valsOK {
		r.bounds()
		r.valsOK, r.splitOK = true, false
	}
	if r.splitOK {
		return false
	}
	cur := r.vals[3*n:]
	for _, i := range r.noisy {
		r.mark[i] = false
		cur[i] = r.quiet(i)
	}
	r.noisy = r.noisy[:0]
	return true
}

// bounds computes every oscillator's compared-value interval and its
// noise-free compared value, with the float operations of Measure.
func (r *Readout) bounds() {
	n := len(r.mark)
	if r.off != nil && len(r.off) != n {
		panic(fmt.Sprintf("silicon: Readout offsets length %d, want %d", len(r.off), n))
	}
	base, lo, hi := r.vals[:n], r.vals[n:2*n], r.vals[2*n:3*n]
	s := r.a.cfg.NoiseSigmaMHz * rng.NormMax
	for i, b := range base {
		l, h := b-s, b+s
		if r.off != nil {
			l -= r.off[i]
			h -= r.off[i]
		}
		if !(l > math.Inf(-1) && h < math.Inf(1)) {
			l, h = math.Inf(-1), math.Inf(1)
		}
		lo[i], hi[i] = l, h
		r.vals[3*n+i] = r.quiet(i)
	}
}

// quiet returns oscillator i's noise-free compared value.
func (r *Readout) quiet(i int) float64 {
	v := r.vals[i]
	if r.off != nil {
		v -= r.off[i]
	}
	return v
}

// overlap reports whether the intervals of i and j are not strictly
// separated, so that noise can change how i compares with j.
func (r *Readout) overlap(i, j int) bool {
	n := len(r.mark)
	lo, hi := r.vals[n:2*n], r.vals[2*n:3*n]
	return !(lo[i] > hi[j] || lo[j] > hi[i])
}

// markNoisy adds i to the noisy set.
func (r *Readout) markNoisy(i int) {
	if !r.mark[i] {
		r.mark[i] = true
		r.noisy = append(r.noisy, i)
	}
}

// Compare records that a response bit compares oscillators i and j;
// both become noisy unless their intervals are strictly separated.
func (r *Readout) Compare(i, j int) {
	if r.overlap(i, j) {
		r.markNoisy(i)
		r.markNoisy(j)
	}
}

// CompareAll records every pairwise comparison within members (a group
// whose order is derived by a comparison sort). It is an
// allocation-free O(k²) scan that stops at a member's first overlap.
func (r *Readout) CompareAll(members []int) {
	for x, i := range members {
		if r.mark[i] {
			continue
		}
		for y, j := range members {
			if y != x && r.overlap(i, j) {
				r.markNoisy(i)
				r.markNoisy(j)
				break
			}
		}
	}
}

// Split completes a rebuild of the noisy set.
func (r *Readout) Split() {
	slices.Sort(r.noisy)
	r.splitOK = true
}

// Noisy returns how many oscillators a query draws noise for. It stays
// exported for the groupbased, device and tempco readout tests.
func (r *Readout) Noisy() int { return len(r.noisy) }

// Measure takes one measurement sweep from nm and returns every
// oscillator's compared value (length N, owned by the readout and
// valid until the next call): the noisy ones measured as MeasureSparse
// would, minus their offsets, the rest noise-free. It draws the sweep
// even when no oscillator is noisy, so the noise of later sweeps does
// not shift.
func (r *Readout) Measure(nm *Noise) []float64 {
	n := len(r.mark)
	base, cur := r.vals[:n], r.vals[3*n:]
	nm.FillIndices(cur, r.noisy)
	sigma := r.a.cfg.NoiseSigmaMHz
	for _, i := range r.noisy {
		v := base[i] + sigma*cur[i]
		if r.off != nil {
			v -= r.off[i]
		}
		cur[i] = v
	}
	return cur
}
