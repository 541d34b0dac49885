package device

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// PairingMode selects the pair-selection scheme combined with the
// entropy distiller (paper §VI-D considers both).
type PairingMode int

const (
	// MaskedChain is 1-out-of-k masking applied to a disjoint neighbor
	// chain (Fig. 6b).
	MaskedChain PairingMode = iota
	// OverlappingChain is the N-1-pair overlapping neighbor chain
	// (Fig. 6c).
	OverlappingChain
)

// String implements fmt.Stringer.
func (m PairingMode) String() string {
	switch m {
	case MaskedChain:
		return "masked-chain"
	case OverlappingChain:
		return "overlapping-chain"
	}
	return fmt.Sprintf("PairingMode(%d)", int(m))
}

// DistillerPairParams configures a distiller + pairing device.
type DistillerPairParams struct {
	Rows, Cols int
	Degree     int
	Mode       PairingMode
	// K is the masking group size (MaskedChain only).
	K          int
	Code       ecc.Code
	EnrollReps int
	// Noise names the silicon measurement-noise model. Single-valued:
	// the zero value silicon.NoiseCounter is the only accepted model.
	Noise silicon.NoiseKind
}

// DistillerPairHelperNVM is the complete helper NVM of the construction:
// distiller coefficients, the masking selections (MaskedChain mode), and
// the ECC offset.
type DistillerPairHelperNVM struct {
	Poly    distiller.Poly2D
	Masking pairing.MaskingHelper // zero value in OverlappingChain mode
	Offset  bitvec.Vector
}

// DistillerPairDevice runs an entropy distiller in front of a classic
// pairing scheme — the DAC 2013 distiller proposal composed per §VI-D.
// Like GroupBasedDevice it uses the reprogrammed-key observable.
type DistillerPairDevice struct {
	base
	params   DistillerPairParams
	basePair []pairing.Pair // fixed by the architecture, not helper data
	nvm      DistillerPairHelperNVM
	enrolled bitvec.Vector
	bind     binding
	scratch  distillerScratch
}

// distillerScratch is the device's reusable reconstruction state:
// the distiller surface evaluated on the grid, the resolved pair list
// and the pair read. Per-device, not concurrency-safe.
type distillerScratch struct {
	helperValid bool
	grid        distiller.Grid
	sel         []pairing.Pair
	selBuf      []pairing.Pair
	selErr      error
	// The readout reads the distilled residuals (frequency minus the
	// grid) and draws noise only where it can change a pair's
	// comparison; it compares no pair while the masking selection is
	// invalid.
	pairRead
	// content fingerprint of the masking resolution: a helper write that
	// changes only the ECC offset (an attack arm's hypothesis sweep)
	// skips it, as grid skips the surface evaluation.
	selValid     bool
	lastK        int
	lastSelected []int
}

// refreshScratch rebuilds the helper-derived caches from the current NVM,
// skipping any cache whose helper content is unchanged since the last
// build (outcomes are pure functions of that content).
func (d *DistillerPairDevice) refreshScratch() {
	sc := &d.scratch
	if grid, changed := sc.grid.Eval(d.nvm.Poly, d.params.Rows, d.params.Cols); changed {
		sc.ro.SetOffsets(grid)
	}
	switch d.params.Mode {
	case MaskedChain:
		if !sc.selValid || d.nvm.Masking.K != sc.lastK || !slices.Equal(sc.lastSelected, d.nvm.Masking.Selected) {
			sel, err := d.nvm.Masking.SelectedPairsInto(sc.selBuf, d.basePair)
			sc.sel, sc.selErr = sel, err
			if err == nil {
				sc.selBuf = sel
			}
			sc.lastK = d.nvm.Masking.K
			sc.lastSelected = append(sc.lastSelected[:0], d.nvm.Masking.Selected...)
			sc.selValid = true
			sc.ro.Invalidate()
		}
	default:
		sc.sel, sc.selErr = d.basePair, nil
	}
	sc.sketch.Size(d.params.Code, len(sc.sel))
	sc.helperValid = true
}

// EnrollDistillerPairReuse manufactures and enrolls a device, adopting
// prev's backing storage when non-nil (see EnrollSeqPairReuse for the
// device-pool contract): bit-identical to a fresh enrollment, and prev
// must be discarded by the caller — even on error.
func EnrollDistillerPairReuse(prev *DistillerPairDevice, p DistillerPairParams, srcMfg, srcRun *rng.Source) (*DistillerPairDevice, error) {
	if p.Code == nil || p.EnrollReps < 1 {
		return nil, fmt.Errorf("device: invalid distiller-pair params")
	}
	d := prev
	if d == nil {
		d = &DistillerPairDevice{}
	}
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.Noise = p.Noise
	env := d.manufacture(cfg, srcMfg, srcRun)
	f := d.arr.MeasureAveraged(env, &d.noise, p.EnrollReps)
	poly, err := distiller.Fit(p.Rows, p.Cols, f, p.Degree)
	if err != nil {
		return nil, err
	}
	// The enrolled surface is evaluated once, into the device's grid:
	// the first App finds it there unchanged.
	grid, _ := d.scratch.grid.Eval(poly, p.Rows, p.Cols)
	d.scratch.ro.SetOffsets(grid)
	resid := distiller.DistillWithGrid(nil, f, grid)

	// basePair is fixed by the architecture (geometry and mode), not by
	// the silicon instance — keep prev's list when those match. The
	// comparison is field-wise: params holds an ecc.Code interface whose
	// dynamic type need not be comparable.
	sameBase := d.basePair != nil &&
		d.params.Rows == p.Rows && d.params.Cols == p.Cols && d.params.Mode == p.Mode
	d.params = p
	var mask pairing.MaskingHelper
	switch p.Mode {
	case MaskedChain:
		if !sameBase {
			d.basePair = pairing.ChainPairs(p.Rows, p.Cols, true)
		}
		mask, err = pairing.EnrollMasking(resid, d.basePair, p.K)
		if err != nil {
			return nil, err
		}
	case OverlappingChain:
		if !sameBase {
			d.basePair = pairing.ChainPairs(p.Rows, p.Cols, false)
		}
	default:
		return nil, fmt.Errorf("device: unknown pairing mode %v", p.Mode)
	}
	resp, err := d.response(resid, mask)
	if err != nil {
		return nil, err
	}
	sk := &d.scratch.sketch
	sk.Size(p.Code, resp.Len())
	sk.Stream().PutAt(0, resp)
	off := sk.Enroll(srcRun).Clone()
	d.nvm = DistillerPairHelperNVM{Poly: poly, Masking: mask, Offset: off}
	d.enrolled = resp
	d.bind.reset(resp)
	d.scratch.helperValid = false
	d.scratch.ro.Reset()
	return d, nil
}

// response evaluates the construction's response bits for a residual
// snapshot under the given masking helper.
func (d *DistillerPairDevice) response(resid []float64, mask pairing.MaskingHelper) (bitvec.Vector, error) {
	switch d.params.Mode {
	case MaskedChain:
		sel, err := mask.SelectedPairsInto(nil, d.basePair)
		if err != nil {
			return bitvec.Vector{}, err
		}
		return pairing.Responses(resid, sel), nil
	default:
		return pairing.Responses(resid, d.basePair), nil
	}
}

// BasePairs returns the architecture's fixed pair list (public).
func (d *DistillerPairDevice) BasePairs() []pairing.Pair {
	return append([]pairing.Pair(nil), d.basePair...)
}

// ReadHelper returns a deep copy of the helper NVM.
func (d *DistillerPairDevice) ReadHelper() DistillerPairHelperNVM {
	return DistillerPairHelperNVM{
		Poly:    clonePoly(d.nvm.Poly),
		Masking: pairing.MaskingHelper{K: d.nvm.Masking.K, Selected: append([]int(nil), d.nvm.Masking.Selected...)},
		Offset:  d.nvm.Offset.Clone(),
	}
}

// WriteHelper overwrites the helper NVM after structural validation and
// re-binds the application key through ReprovisionKey, as in
// GroupBasedDevice.
func (d *DistillerPairDevice) WriteHelper(h DistillerPairHelperNVM) error {
	if d.params.Mode == MaskedChain {
		if err := h.Masking.Validate(d.basePair); err != nil {
			return err
		}
	}
	if h.Offset.Len() != d.nvm.Offset.Len() {
		return fmt.Errorf("device: offset length %d, want %d", h.Offset.Len(), d.nvm.Offset.Len())
	}
	// In-place copies into the device-owned NVM buffers; see
	// GroupBasedDevice.WriteHelper for the aliasing argument.
	d.nvm = DistillerPairHelperNVM{
		Poly:    distiller.Poly2D{P: h.Poly.P, Beta: append(d.nvm.Poly.Beta[:0], h.Poly.Beta...)},
		Masking: pairing.MaskingHelper{K: h.Masking.K, Selected: append(d.nvm.Masking.Selected[:0], h.Masking.Selected...)},
		Offset:  copyOffset(d.nvm.Offset, h.Offset),
	}
	d.scratch.helperValid = false
	d.bumpNVM()
	d.ReprovisionKey()
	return nil
}

// ReprovisionKey re-binds the application to whatever key the CURRENT
// helper reconstructs, exactly as a helper write does (see
// GroupBasedDevice.ReprovisionKey for the contract). Every helper this
// device accepts is measured before anything can fail, so the sweep is
// always reserved; the helper-derived caches are rebuilt by the
// reconstruction that first needs them.
func (d *DistillerPairDevice) ReprovisionKey() { d.bind.reserve(&d.noise, d.env) }

// BindKey binds the application to a predicted key.
func (d *DistillerPairDevice) BindKey(key bitvec.Vector) { d.bind.set(key, key.Len()) }

// reconstructScratch regenerates the key at env with noise nm in the
// scratch sketch: on success the first n bits of the sketch-owned
// recovered stream hold the key. An invalid masking selection compares
// no pair (sel is nil) but still takes the sweep.
func (d *DistillerPairDevice) reconstructScratch(env silicon.Environment, nm *silicon.Noise) (recovered bitvec.Vector, n int, ok bool) {
	sc := &d.scratch
	if !sc.helperValid {
		d.refreshScratch()
	}
	recovered, ok = sc.reproduce(d.arr, env, nm, sc.sel, d.nvm.Offset)
	return recovered, len(sc.sel), ok && sc.selErr == nil
}

// App reconstructs and compares against the bound key (settling a
// reserved re-binding first), running in the device's scratch buffers.
func (d *DistillerPairDevice) App() bool {
	d.addQuery()
	if env, nm, due := d.bind.due(); due {
		d.bind.settle(d.reconstructScratch(env, nm))
	}
	recovered, n, ok := d.reconstructScratch(d.env, &d.noise)
	key := d.bind.key
	return ok && n > 0 && key.Len() == n && recovered.HasPrefix(key)
}

// TrueKey returns the original enrolled key (evaluation-only).
func (d *DistillerPairDevice) TrueKey() bitvec.Vector { return d.enrolled.Clone() }

// Params exposes the public device specification.
func (d *DistillerPairDevice) Params() DistillerPairParams { return d.params }
