package device

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

// TempCoDevice is a deployed temperature-aware cooperative RO PUF.
type TempCoDevice struct {
	base
	arr    *silicon.Array
	params tempco.Params
	nvm    tempco.Helper
	key    bitvec.Vector
	// noise is the per-oracle measurement-noise state.
	noise *silicon.Noise
	// scratch is the reusable reconstruction state (see tempco.Scratch);
	// per-device, not concurrency-safe.
	scratch tempco.Scratch
}

// EnrollTempCo manufactures and enrolls a device. The silicon config gets
// a widened temperature-slope spread so the cooperating population is
// non-trivial, mirroring the operating conditions the HOST 2009 proposal
// targets.
func EnrollTempCo(p tempco.Params, srcMfg, srcRun *rng.Source) (*TempCoDevice, error) {
	return EnrollTempCoReuse(nil, p, srcMfg, srcRun)
}

// EnrollTempCoReuse is EnrollTempCo adopting a previously enrolled
// device's backing storage (see EnrollSeqPairReuse for the device-pool
// contract): bit-identical to a fresh enrollment, prev may be nil, and
// prev must be discarded by the caller — even on error.
func EnrollTempCoReuse(prev *TempCoDevice, p tempco.Params, srcMfg, srcRun *rng.Source) (*TempCoDevice, error) {
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.TempCoefSigmaMHzPerC = 0.03
	cfg.Noise = p.Noise
	var prevArr *silicon.Array
	if prev != nil {
		prevArr = prev.arr
	}
	arr := prevArr.Remanufactured(cfg, srcMfg)
	noise := arr.NewNoise(srcRun)
	h, key, err := tempco.Enroll(arr, p, srcRun, noise)
	if err != nil {
		return nil, err
	}
	d := prev
	if d == nil {
		d = &TempCoDevice{}
	}
	d.base.reset(cfg.NominalEnv())
	d.arr = arr
	d.params = p
	d.nvm = h
	d.key = key
	d.noise = noise
	d.scratch.InvalidateSilicon()
	return d, nil
}

// ReadHelper returns a deep copy of the helper NVM.
func (d *TempCoDevice) ReadHelper() tempco.Helper {
	return tempco.Helper{
		Pairs:  append([]tempco.PairInfo(nil), d.nvm.Pairs...),
		Offset: d.nvm.Offset.Clone(),
	}
}

// HelperView returns the helper NVM sharing the device's storage — the
// read-only fast path for marshaling consumers. Callers must not mutate
// it or retain it across a WriteHelper.
func (d *TempCoDevice) HelperView() tempco.Helper { return d.nvm }

// WriteHelper overwrites the helper NVM after structural validation.
func (d *TempCoDevice) WriteHelper(h tempco.Helper) error {
	if err := tempco.ValidateHelper(h, d.arr.N()); err != nil {
		return err
	}
	if h.Offset.Len() != d.nvm.Offset.Len() {
		return fmt.Errorf("device: offset length %d, want %d", h.Offset.Len(), d.nvm.Offset.Len())
	}
	// In-place copies into the device-owned NVM buffers; see
	// GroupBasedDevice.WriteHelper for the aliasing argument.
	d.nvm = tempco.Helper{
		Pairs:  append(d.nvm.Pairs[:0], h.Pairs...),
		Offset: copyOffset(d.nvm.Offset, h.Offset),
	}
	d.scratch.Invalidate()
	d.bumpNVM()
	return nil
}

// App reconstructs at the current ambient temperature and compares with
// the enrolled key, running in the device's scratch buffers (see
// SeqPairDevice.App for the determinism contract).
func (d *TempCoDevice) App() bool {
	d.addQuery()
	got, err := tempco.Reconstruct(d.arr, d.params, &d.nvm, d.env, d.noise, &d.scratch)
	return err == nil && keysEqual(got, d.key)
}

// TrueKey returns the enrolled key (evaluation-only).
func (d *TempCoDevice) TrueKey() bitvec.Vector { return d.key.Clone() }

// Params exposes the public device specification.
func (d *TempCoDevice) Params() tempco.Params { return d.params }

// Array exposes the silicon instance for ground-truth evaluation only.
func (d *TempCoDevice) Array() *silicon.Array { return d.arr }
