package device

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/groupbased"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// GroupBasedDevice is a deployed group-based RO PUF (Fig. 4).
//
// Its observable differs from the pair-based devices in one respect the
// paper makes explicit: the attack REPROGRAMS the key, and "their
// reconstruction failures [are assumed] to be observable" — think of a
// device that re-encrypts known data under whatever key it regenerates.
// App therefore reports reconstruction success against the key bound at
// the LAST successful helper write (the attacker's predicted key), not
// against the original enrollment; until the first write that key is
// the enrolled one.
type GroupBasedDevice struct {
	base
	params groupbased.Params
	nvm    groupbased.Helper
	// enrolled is the original key; bind holds the key the application
	// currently operates with (re-provisioned after a key change, the
	// paper's "maliciously reprogrammed keys" scenario).
	enrolled bitvec.Vector
	bind     binding
	// scratch is the reusable reconstruction state (see
	// groupbased.Scratch); per-device, not concurrency-safe.
	scratch groupbased.Scratch
}

// EnrollGroupBasedReuse manufactures and enrolls a device, adopting
// prev's backing storage when non-nil (see EnrollSeqPairReuse for the
// device-pool contract): bit-identical to a fresh enrollment, and prev
// must be discarded by the caller — even on error.
func EnrollGroupBasedReuse(prev *GroupBasedDevice, p groupbased.Params, srcMfg, srcRun *rng.Source) (*GroupBasedDevice, error) {
	d := prev
	if d == nil {
		d = &GroupBasedDevice{}
	}
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.Noise = p.Noise
	d.manufacture(cfg, srcMfg, srcRun)
	h, key, err := groupbased.Enroll(d.arr, p, srcRun, &d.noise)
	if err != nil {
		return nil, err
	}
	d.params = p
	d.nvm = h
	d.enrolled = key
	d.bind.reset(key)
	d.scratch.InvalidateSilicon()
	return d, nil
}

// ReadHelper returns a deep copy of the helper NVM.
func (d *GroupBasedDevice) ReadHelper() groupbased.Helper {
	return groupbased.Helper{
		Poly:     clonePoly(d.nvm.Poly),
		Grouping: groupbased.Grouping{Assign: append([]int(nil), d.nvm.Grouping.Assign...)},
		Offset:   d.nvm.Offset.Clone(),
	}
}

// WriteHelper overwrites the helper NVM after the honest device's
// structural validation, and re-binds the application key through
// ReprovisionKey: the next successful reconstruction defines what the
// application data is encrypted under (the re-provisioning step of the
// reprogrammed-key scenario).
func (d *GroupBasedDevice) WriteHelper(h groupbased.Helper) error {
	// The scratch validates the grouping as it lays it out, once: the
	// reconstruction that follows reuses that layout, and a write
	// repeating the grouping — an arm sweep varies only the offset —
	// skips both.
	if err := d.scratch.Layout(&h.Grouping, d.arr.N()); err != nil {
		return err
	}
	if h.Offset.Len()%d.params.Code.N() != 0 || h.Offset.Len() == 0 {
		return fmt.Errorf("device: offset length %d not a block multiple", h.Offset.Len())
	}
	// Copy into the device-owned NVM buffers in place: helper writes are
	// the attack loops' second hot path. Safe under aliasing — appending
	// a slice's own contents onto itself from index zero rewrites it
	// with identical values.
	d.nvm = groupbased.Helper{
		Poly:     distiller.Poly2D{P: h.Poly.P, Beta: append(d.nvm.Poly.Beta[:0], h.Poly.Beta...)},
		Grouping: groupbased.Grouping{Assign: append(d.nvm.Grouping.Assign[:0], h.Grouping.Assign...)},
		Offset:   copyOffset(d.nvm.Offset, h.Offset),
	}
	d.scratch.Invalidate()
	d.bumpNVM()
	d.ReprovisionKey()
	return nil
}

// ReprovisionKey re-binds the application to whatever key the CURRENT
// helper reconstructs, exactly as a helper write does: one fresh
// reconstruction at the current operating condition, consuming one
// measurement sweep of the device's noise; a failure leaves the binding
// unusable (zero-length), so every App fails until a working helper is
// written — observable either way. Adapters re-installing an identical
// helper image call this directly to keep the write's observable side
// effects without re-parsing the image.
//
// Only the structural checks run here: a helper failing them fails the
// reconstruction before it measures, so it draws no sweep. Otherwise
// the sweep is reserved and the reconstruction deferred to the next
// App, which runs it at the reserved sweep and this condition unless a
// BindKey or another write replaced the binding first (see binding).
func (d *GroupBasedDevice) ReprovisionKey() {
	if err := groupbased.Prepare(d.arr, d.params, &d.nvm, &d.scratch); err != nil {
		d.bind.reset(bitvec.Vector{})
		return
	}
	d.bind.reserve(&d.noise, d.env)
}

// BindKey lets the attacker bind the application to a predicted key
// directly (e.g. by presenting data encrypted under it), the cleanest
// reading of the paper's reprogrammed-key observable.
func (d *GroupBasedDevice) BindKey(key bitvec.Vector) { d.bind.set(key, key.Len()) }

// App reconstructs with the current helper and compares against the
// currently bound application key (settling a reserved re-binding
// first), running in the device's scratch buffers.
func (d *GroupBasedDevice) App() bool {
	d.addQuery()
	if env, nm, ok := d.bind.due(); ok {
		key, err := groupbased.Reconstruct(d.arr, d.params, &d.nvm, env, nm, &d.scratch)
		d.bind.settle(key, key.Len(), err == nil)
	}
	got, err := groupbased.Reconstruct(d.arr, d.params, &d.nvm, d.env, &d.noise, &d.scratch)
	return err == nil && d.bind.key.Len() > 0 && keysEqual(got, d.bind.key)
}

// TrueKey returns the original enrolled key (evaluation-only).
func (d *GroupBasedDevice) TrueKey() bitvec.Vector { return d.enrolled.Clone() }

// Params exposes the public device specification.
func (d *GroupBasedDevice) Params() groupbased.Params { return d.params }

func clonePoly(p distiller.Poly2D) distiller.Poly2D {
	return distiller.Poly2D{P: p.P, Beta: append([]float64(nil), p.Beta...)}
}
