package attack

import (
	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/groupbased"
	"repro/internal/helperdata"
	"repro/internal/tempco"
)

// In-process adapters presenting the simulated devices of
// internal/device as Targets. Each adapter translates between the
// device's typed helper structs and the sectioned NVM image and inverts
// App() into the failure convention (Query true = failure).
//
// Two fast paths keep the adapters off the oracle-query hot loop's
// allocation profile:
//
//   - ReadImage marshals straight from the device's read-only helper
//     view (HelperView) instead of deep-copying the whole NVM first and
//     discarding the copy after serialization.
//
//   - WriteImage remembers the identity of the last image it installed
//     together with the device's NVM generation. Re-installing the SAME
//     image onto unchanged NVM — what the distinguisher does before
//     every query of an arm's run — skips the parse/validate/clone
//     pipeline. The skip is observable-equivalent: devices with a
//     re-provision side effect (reprogrammed-key observables) still run
//     it via ReprovisionKey, so key bindings and the measurement-noise
//     sweeps are consumed bit-identically to a full write.

// writeCache is the shared memoization state of an adapter's WriteImage.
type writeCache struct {
	im  *helperdata.Image
	gen uint64
}

// parseCache memoizes image → parsed-helper translations by image
// identity, bounded to the handful of arm images a hypothesis test
// alternates between. Images must be treated as immutable once written
// (the contract all attacks in this package follow).
type parseCache[T any] struct {
	m map[*helperdata.Image]T
}

func (c *parseCache[T]) get(im *helperdata.Image) (T, bool) {
	v, ok := c.m[im]
	return v, ok
}

func (c *parseCache[T]) put(im *helperdata.Image, v T) {
	if c.m == nil {
		c.m = make(map[*helperdata.Image]T, 8)
	} else if len(c.m) >= 16 {
		clear(c.m)
	}
	c.m[im] = v
}

// installImage is the one write-cache protocol all four adapters share:
// an identical re-install is skipped (running only the device's
// re-provision side effect, when it has one), otherwise the image is
// parsed (through the bounded parse cache), written to the device, and
// recorded. The func parameters are only invoked, never stored, so the
// closures stay off the heap on the per-query hit path.
func installImage[T any](cache *writeCache, parsed *parseCache[T], im *helperdata.Image,
	gen func() uint64, parse func(*helperdata.Image) (T, error), write func(T) error,
	reprovision func()) error {
	if cache.hit(im, gen()) {
		if reprovision != nil {
			reprovision()
		}
		return nil
	}
	cache.clear()
	nvm, ok := parsed.get(im)
	if !ok {
		var err error
		if nvm, err = parse(im); err != nil {
			return err
		}
		parsed.put(im, nvm)
	}
	if err := write(nvm); err != nil {
		return err
	}
	cache.store(im, gen())
	return nil
}

// hit reports whether installing im would re-write identical helper
// content: same image identity, and the device NVM untouched since.
func (c *writeCache) hit(im *helperdata.Image, gen uint64) bool {
	return c.im != nil && c.im == im && c.gen == gen
}

// store records a successful install.
func (c *writeCache) store(im *helperdata.Image, gen uint64) {
	c.im, c.gen = im, gen
}

func (c *writeCache) clear() { c.im = nil }

// NewSeqPairTarget adapts a deployed LISA device.
func NewSeqPairTarget(d *device.SeqPairDevice) Target { return &seqPairTarget{d: d} }

type seqPairTarget struct {
	d      *device.SeqPairDevice
	cache  writeCache
	parsed parseCache[device.SeqPairHelperNVM]
}

func (t *seqPairTarget) Spec() Spec {
	return Spec{
		Construction: "seqpair",
		Code:         t.d.Code(),
		AmbientC:     t.d.Environment().TempC,
	}
}

func (t *seqPairTarget) ReadImage() (*helperdata.Image, error) {
	h := t.d.HelperView()
	return SeqPairImage(h.Pairs, h.Offset)
}

func (t *seqPairTarget) WriteImage(im *helperdata.Image) error {
	return installImage(&t.cache, &t.parsed, im, t.d.NVMGeneration,
		func(im *helperdata.Image) (device.SeqPairHelperNVM, error) {
			pairs, offset, err := SeqPairFromImage(im)
			return device.SeqPairHelperNVM{Pairs: pairs, Offset: offset}, err
		},
		t.d.WriteHelper, nil)
}

func (t *seqPairTarget) Query() bool  { return !t.d.App() }
func (t *seqPairTarget) Queries() int { return t.d.Queries() }

// NewTempCoTarget adapts a deployed temperature-aware cooperative device.
func NewTempCoTarget(d *device.TempCoDevice) Target { return &tempCoTarget{d: d} }

type tempCoTarget struct {
	d      *device.TempCoDevice
	cache  writeCache
	parsed parseCache[tempco.Helper]
}

func (t *tempCoTarget) Spec() Spec {
	return Spec{
		Construction: "tempco",
		Code:         t.d.Params().Code,
		AmbientC:     t.d.Environment().TempC,
	}
}

func (t *tempCoTarget) ReadImage() (*helperdata.Image, error) {
	return TempCoImage(t.d.HelperView()), nil
}

func (t *tempCoTarget) WriteImage(im *helperdata.Image) error {
	return installImage(&t.cache, &t.parsed, im, t.d.NVMGeneration,
		TempCoFromImage, t.d.WriteHelper, nil)
}

func (t *tempCoTarget) Query() bool  { return !t.d.App() }
func (t *tempCoTarget) Queries() int { return t.d.Queries() }

// NewGroupBasedTarget adapts a deployed group-based device (the
// reprogrammed-key observable: it also implements KeyBinder).
func NewGroupBasedTarget(d *device.GroupBasedDevice) Target { return &groupBasedTarget{d: d} }

type groupBasedTarget struct {
	d      *device.GroupBasedDevice
	cache  writeCache
	parsed parseCache[groupbased.Helper]
}

func (t *groupBasedTarget) Spec() Spec {
	p := t.d.Params()
	return Spec{
		Construction: "groupbased",
		Rows:         p.Rows,
		Cols:         p.Cols,
		Code:         p.Code,
		AmbientC:     t.d.Environment().TempC,
	}
}

func (t *groupBasedTarget) ReadImage() (*helperdata.Image, error) {
	return GroupBasedImage(t.d.HelperView())
}

func (t *groupBasedTarget) WriteImage(im *helperdata.Image) error {
	// The re-provision hook keeps a skipped identical write's observable
	// side effects: key re-binding and the reconstruction's noise sweep.
	return installImage(&t.cache, &t.parsed, im, t.d.NVMGeneration,
		GroupBasedFromImage, t.d.WriteHelper, t.d.ReprovisionKey)
}

func (t *groupBasedTarget) Query() bool               { return !t.d.App() }
func (t *groupBasedTarget) Queries() int              { return t.d.Queries() }
func (t *groupBasedTarget) BindKey(key bitvec.Vector) { t.d.BindKey(key) }

// NewDistillerTarget adapts a deployed distiller + pairing device
// (reprogrammed-key observable; the Spec construction is "masking" or
// "chain" according to the device's pairing mode).
func NewDistillerTarget(d *device.DistillerPairDevice) Target { return &distillerTarget{d: d} }

type distillerTarget struct {
	d      *device.DistillerPairDevice
	cache  writeCache
	parsed parseCache[device.DistillerPairHelperNVM]
}

func (t *distillerTarget) Spec() Spec {
	p := t.d.Params()
	construction := "masking"
	if p.Mode == device.OverlappingChain {
		construction = "chain"
	}
	return Spec{
		Construction: construction,
		Rows:         p.Rows,
		Cols:         p.Cols,
		Code:         p.Code,
		AmbientC:     t.d.Environment().TempC,
	}
}

func (t *distillerTarget) ReadImage() (*helperdata.Image, error) {
	h := t.d.HelperView()
	if t.d.Params().Mode == device.MaskedChain {
		return DistillerImage(h.Poly, &h.Masking, h.Offset)
	}
	return DistillerImage(h.Poly, nil, h.Offset)
}

func (t *distillerTarget) WriteImage(im *helperdata.Image) error {
	return installImage(&t.cache, &t.parsed, im, t.d.NVMGeneration,
		func(im *helperdata.Image) (device.DistillerPairHelperNVM, error) {
			poly, mask, offset, err := DistillerFromImage(im)
			nvm := device.DistillerPairHelperNVM{Poly: poly, Offset: offset}
			if mask != nil {
				nvm.Masking = *mask
			}
			return nvm, err
		},
		t.d.WriteHelper, t.d.ReprovisionKey)
}

func (t *distillerTarget) Query() bool               { return !t.d.App() }
func (t *distillerTarget) Queries() int              { return t.d.Queries() }
func (t *distillerTarget) BindKey(key bitvec.Vector) { t.d.BindKey(key) }
