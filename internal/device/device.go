// Package device models deployed PUF key-generation devices from the
// attacker's point of view (the "IC" boxes of the paper's figures 4 and
// 7): public helper NVM with full read/write access, a trigger for key
// reconstruction, and the observable outcome of the key-dependent
// application.
//
// The observable follows the paper's assumption verbatim: "an inability
// to reconstruct the key should affect the observable behavior of any
// useful application". App() therefore returns false when reconstruction
// errors out OR when the reconstructed key differs from the enrolled
// reference key the application's data is bound to. Every App() call
// consumes fresh measurement noise and increments the query counter the
// attack-cost experiments report.
//
// The group-based and distiller-pair devices use the paper's
// reprogrammed-key observable: App compares against the key bound at
// the last helper write (or BindKey), not the enrolled one. A write
// re-binds by reserving one measurement sweep for the reconstruction
// and running it in the App that first compares against it — skipped
// when a BindKey replaces the binding first — with outcomes
// bit-identical to reconstructing at write time (see binding).
//
// Every App reads its response through a silicon.Readout, which draws
// noise only where it can change a comparison, and reproduces it
// through an ecc.Sketch, both kept per device so a steady-state query
// allocates nothing. The devices whose bits compare RO pairs —
// sequential pairing, the distiller's pairings and the fuzzy
// extractor's chain — share one read step (pairRead); the group-based
// and temperature-aware devices read through groupbased.Scratch and
// tempco.Scratch.
//
// A device is one oracle driven by one goroutine, as the adversary holds
// one device: its scratch and noise state are not concurrency-safe.
// Concurrency comes from running many devices at once (campaign
// workers), never from sharing or cloning one.
package device

import (
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/silicon"
)

// Device is the common attacker-visible surface. Construction-specific
// helper types are exposed by the concrete device types; this interface
// carries the query bookkeeping shared by all of them.
type Device interface {
	// App triggers one key reconstruction and reports whether the
	// key-dependent application behaves correctly.
	App() bool
	// Queries returns the number of App calls so far.
	Queries() int
	// Environment returns the current operating condition.
	Environment() silicon.Environment
	// SetEnvironment changes the operating condition (the attacker may
	// control ambient temperature in lab conditions; attacks that do
	// not assume this leave it untouched).
	SetEnvironment(env silicon.Environment)
}

// base carries the bookkeeping shared by every concrete device. The
// query counter is atomic so that readers on other goroutines (progress
// displays) never race with an App call in flight.
type base struct {
	env     silicon.Environment
	queries atomic.Int64
	// nvmGen counts successful helper NVM writes. Adapters use it to
	// detect that the NVM still holds exactly what they last wrote and
	// skip re-parsing an identical image (see attack's write cache). It
	// is maintained by the owning goroutine only.
	nvmGen uint64
}

func (b *base) Queries() int { return int(b.queries.Load()) }

// reset returns the bookkeeping to freshly-enrolled state for the
// device-pool reuse path. Field-by-field: base embeds an atomic counter
// and must not be copied as a value.
func (b *base) reset(env silicon.Environment) {
	b.env = env
	b.queries.Store(0)
	b.nvmGen = 0
}

// addQuery records one oracle query.
func (b *base) addQuery() { b.queries.Add(1) }

// bumpNVM records one helper NVM write.
func (b *base) bumpNVM() { b.nvmGen++ }

// NVMGeneration returns the number of helper NVM writes so far. Two
// reads returning the same value bracket a span in which the NVM content
// did not change.
func (b *base) NVMGeneration() uint64 { return b.nvmGen }

func (b *base) Environment() silicon.Environment { return b.env }

func (b *base) SetEnvironment(env silicon.Environment) { b.env = env }

// keysEqual compares a reconstructed key against the enrolled reference.
func keysEqual(a, b bitvec.Vector) bool { return a.Equal(b) }

// copyOffset copies src into the device-owned offset buffer dst,
// resizing dst within its capacity when the lengths differ (a write that
// changes the block count), so a device that has held its largest offset
// copies without allocating. Safe when src is dst itself (a device's
// own HelperView written back): copying a vector onto itself is a no-op.
func copyOffset(dst, src bitvec.Vector) bitvec.Vector {
	if dst.Len() != src.Len() {
		dst = dst.Resized(src.Len())
	}
	src.CopyInto(dst)
	return dst
}

// pairRead is the reconstruction state of a device whose response bits
// compare RO pairs — sequential pairing, the distiller's pairings and
// the fuzzy extractor's chain: the readout of the pairs' oscillators and
// the code-offset sketch of the response stream. A steady-state read is
// allocation-free. The owner sizes the sketch for its pair count and
// calls ro.Invalidate when the pair list changes.
type pairRead struct {
	ro     silicon.Readout
	sketch ecc.Sketch
}

// fill takes one measurement sweep of a at env from nm, through the
// readout, and writes each pair's response bit into the sketch stream.
func (r *pairRead) fill(a *silicon.Array, env silicon.Environment, nm *silicon.Noise, pairs []pairing.Pair) {
	if r.ro.Stale(a, env) {
		for _, p := range pairs {
			r.ro.Compare(p.A, p.B)
		}
		r.ro.Split()
	}
	f := r.ro.Measure(nm)
	stream := r.sketch.Stream()
	for i, p := range pairs {
		if pairing.ResponseBit(f, p) {
			stream.Set(i, true)
		}
	}
}

// reproduce fills the stream and recovers the response offset binds
// (sketch-owned); ok is false when offset does not fit the sketch or a
// block fails to decode.
func (r *pairRead) reproduce(a *silicon.Array, env silicon.Environment, nm *silicon.Noise, pairs []pairing.Pair, offset bitvec.Vector) (recovered bitvec.Vector, ok bool) {
	r.fill(a, env, nm, pairs)
	if r.sketch.Len() != offset.Len() {
		return bitvec.Vector{}, false
	}
	recovered, _, ok = r.sketch.Reproduce(offset)
	return recovered, ok
}

// binding is the application key of a reprogrammed-key device (the key
// its application data is bound to), plus a re-binding the device has
// reserved but not yet run.
//
// A helper write re-binds the key to whatever the new helper
// reconstructs. Only the next App observes that reconstruction, and an
// attack arm binds its predicted key right after nearly every write, so
// the write does not run it: it reserves the measurement sweep the
// reconstruction would have drawn and records the operating condition,
// and the App that observes the binding runs it at exactly those (see
// due). Noise is keyed by (seed, sweep, oscillator), so the outcome is
// bit-identical to reconstructing at write time, and a BindKey or a
// later write simply drops the reservation.
type binding struct {
	// key is the bound key; zero length makes every App fail. buf is the
	// reusable storage behind copied keys.
	key bitvec.Vector
	buf bitvec.Vector
	// pending marks a reserved re-binding: reconstruct at env with
	// noise, whose next sweep is the reserved one.
	pending bool
	env     silicon.Environment
	noise   silicon.Noise
}

// reset binds key without copying it (the device-owned enrolled key)
// and drops any reservation.
func (b *binding) reset(key bitvec.Vector) { b.key, b.pending = key, false }

// set binds a copy of the first n bits of src, reallocating its storage
// only on growth: BindKey runs once per oracle query on the
// reprogrammed-key attack path, so binding must not clone per call.
func (b *binding) set(src bitvec.Vector, n int) {
	if b.buf.Len() != n {
		b.buf = b.buf.Resized(n)
	}
	src.SliceInto(0, n, b.buf)
	b.reset(b.buf)
}

// reserve replaces the binding with a re-binding reconstruction at env
// on nm's next sweep, which it claims.
func (b *binding) reserve(nm *silicon.Noise, env silicon.Environment) {
	b.noise, b.env, b.pending = nm.Reserve(), env, true
}

// due hands a reserved re-binding to the App about to compare against
// the key: ok reports one, which the caller reconstructs at env with nm
// and passes to settle before its own reconstruction.
func (b *binding) due() (env silicon.Environment, nm *silicon.Noise, ok bool) {
	if !b.pending {
		return silicon.Environment{}, nil, false
	}
	b.pending = false
	return b.env, &b.noise, true
}

// settle binds a re-binding reconstruction's outcome: the first n bits
// of src on success, an unusable key on failure.
func (b *binding) settle(src bitvec.Vector, n int, ok bool) {
	if !ok {
		b.reset(bitvec.Vector{})
		return
	}
	b.set(src, n)
}
