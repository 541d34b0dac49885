package device

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// SeqPairParams configures a sequential-pairing (LISA) device.
type SeqPairParams struct {
	Rows, Cols   int
	ThresholdMHz float64
	Policy       pairing.StoragePolicy
	Code         ecc.Code
	EnrollReps   int
	// Noise names the silicon measurement-noise model. Single-valued:
	// the zero value silicon.NoiseCounter is the only accepted model.
	Noise silicon.NoiseKind
}

// SeqPairHelperNVM is the construction's complete helper NVM content.
type SeqPairHelperNVM struct {
	Pairs  pairing.SeqPairHelper
	Offset bitvec.Vector
}

// SeqPairDevice is a deployed LISA device.
type SeqPairDevice struct {
	base
	params  SeqPairParams
	nvm     SeqPairHelperNVM
	key     bitvec.Vector // enrolled key (secret, drives the observable)
	scratch seqPairScratch
}

// seqPairScratch is the device's reusable reconstruction state: the
// pair read of the stored pairs. It makes a steady-state App call
// allocation-free; WriteHelper invalidates it. Scratch is per-device
// state, NOT concurrency-safe.
type seqPairScratch struct {
	helperValid bool
	pairRead
}

// refresh rebuilds the helper-derived caches from the current NVM.
func (d *SeqPairDevice) refreshScratch() {
	sc := &d.scratch
	sc.ro.Invalidate()
	sc.sketch.Size(d.params.Code, len(d.nvm.Pairs.Pairs))
	sc.helperValid = true
}

// EnrollSeqPairReuse manufactures and enrolls a device. srcMfg drives
// manufacturing variability, srcRun drives enrollment noise, helper
// randomization and all subsequent reconstruction noise.
//
// A non-nil prev is a previously enrolled device whose backing storage
// is adopted in place of fresh allocations — the device struct, its
// silicon component buffers (Array.Remanufactured) and the warm scratch
// capacity — the campaign device-pool path. The result is bit-identical
// to a fresh enrollment (prev nil) on the same sources. prev must not
// be used again by the caller — on error it is left mid-remanufacture
// and must be discarded, not reused.
func EnrollSeqPairReuse(prev *SeqPairDevice, p SeqPairParams, srcMfg, srcRun *rng.Source) (*SeqPairDevice, error) {
	if p.Code == nil || p.EnrollReps < 1 {
		return nil, fmt.Errorf("device: invalid seqpair params %+v", p)
	}
	d := prev
	if d == nil {
		d = &SeqPairDevice{}
	}
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.Noise = p.Noise
	env := d.manufacture(cfg, srcMfg, srcRun)
	f := d.arr.MeasureAveraged(env, &d.noise, p.EnrollReps)
	helper := pairing.EnrollSeqPair(f, p.ThresholdMHz, p.Policy, srcRun)
	if len(helper.Pairs) == 0 {
		return nil, fmt.Errorf("device: enrollment selected no pairs (threshold %v too high)", p.ThresholdMHz)
	}
	resp := pairing.Responses(f, helper.Pairs)
	sk := &d.scratch.sketch
	sk.Size(p.Code, resp.Len())
	sk.Stream().PutAt(0, resp)
	off := sk.Enroll(srcRun).Clone()
	d.params = p
	d.nvm = SeqPairHelperNVM{Pairs: helper, Offset: off}
	d.key = resp
	// The remanufactured array lives at the same pointer, so the
	// readout cannot detect the content change: reset it explicitly
	// along with the helper-derived caches.
	d.scratch.helperValid = false
	d.scratch.ro.Reset()
	return d, nil
}

// ReadHelper returns a deep copy of the helper NVM (attacker read access).
func (d *SeqPairDevice) ReadHelper() SeqPairHelperNVM {
	return SeqPairHelperNVM{
		Pairs:  pairing.SeqPairHelper{Pairs: append([]pairing.Pair(nil), d.nvm.Pairs.Pairs...)},
		Offset: d.nvm.Offset.Clone(),
	}
}

// WriteHelper overwrites the helper NVM (attacker write access). The
// device applies its structural sanity checks at write time and rejects
// malformed content; the paper's attacks pass these checks by design.
func (d *SeqPairDevice) WriteHelper(h SeqPairHelperNVM) error {
	if err := h.Pairs.Validate(d.arr.N()); err != nil {
		return err
	}
	if h.Offset.Len() != d.nvm.Offset.Len() {
		return fmt.Errorf("device: offset length %d, want %d", h.Offset.Len(), d.nvm.Offset.Len())
	}
	// Copy into the device-owned NVM buffers in place: helper writes are
	// the attack loops' second hot path, and the buffers are the
	// device's own (ReadHelper hands out copies).
	d.nvm.Pairs.Pairs = append(d.nvm.Pairs.Pairs[:0], h.Pairs.Pairs...)
	h.Offset.CopyInto(d.nvm.Offset)
	d.scratch.helperValid = false
	d.bumpNVM()
	return nil
}

// NumPairs returns the enrolled pair count (public: it is the helper
// list's length).
func (d *SeqPairDevice) NumPairs() int { return len(d.nvm.Pairs.Pairs) }

// Code exposes the ECC parameters (public device specification).
func (d *SeqPairDevice) Code() ecc.Code { return d.params.Code }

// App reconstructs the key from current NVM and fresh measurements and
// compares it with the enrolled reference. The reconstruction runs
// entirely in the device's scratch buffers (a readout of the stored
// pairs' oscillators, decode-into ECC), allocation-free in steady
// state.
func (d *SeqPairDevice) App() bool {
	d.addQuery()
	sc := &d.scratch
	if !sc.helperValid {
		d.refreshScratch()
	}
	pairs := d.nvm.Pairs.Pairs
	recovered, ok := sc.reproduce(d.arr, d.env, &d.noise, pairs, d.nvm.Offset)
	return ok && len(pairs) == d.key.Len() && recovered.HasPrefix(d.key)
}

// TrueKey returns the enrolled key. Evaluation-only: attacks never call
// it; benches use it to score recovery.
func (d *SeqPairDevice) TrueKey() bitvec.Vector { return d.key.Clone() }
