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
// ReadImage encodes the device's one read path, ReadHelper's deep copy,
// into a fresh image through the layout's composer (one Append(nil) per
// blob); an attack reads the image once, at its start.
//
// WriteImage keeps the adapters off the oracle-query hot loop's
// allocation profile. It parses every image it installs into one typed
// helper the adapter owns (the codecs' parse-into forms reuse its
// storage) and hands that to the device's WriteHelper, which copies it
// into the device's own NVM buffers; so the helper is free again as
// soon as the write returns. It also remembers what it installed last:
// the image's identity and write generation, and the device's NVM
// generation after the write. Re-installing an image that has not been
// written since onto unchanged NVM — what the distinguisher does before
// every query of an arm's run — skips the parse/validate/copy pipeline.
// A pooled arm image that was rewritten has a new generation, so its
// next install is a full write. The skip is observable-equivalent:
// devices with a re-provision side effect (reprogrammed-key observables)
// still run it via ReprovisionKey, so key bindings and the
// measurement-noise sweeps are consumed bit-identically to a full write.

// writeCache is the shared memoization state of an adapter's WriteImage:
// the last installed image, its write generation then, and the device's
// NVM generation after the write.
type writeCache struct {
	im     *helperdata.Image
	imGen  uint64
	nvmGen uint64
}

// installImage is the one write protocol all four adapters share: an
// identical re-install is skipped (running only the device's
// re-provision side effect, when it has one), otherwise the image is
// parsed into the adapter-owned helper nvm, written to the device, and
// recorded. The func parameters are only invoked, never stored, so they
// stay off the heap.
func installImage[T any](cache *writeCache, nvm *T, im *helperdata.Image,
	gen func() uint64, parse func(*helperdata.Image, *T) error, write func(T) error,
	reprovision func()) error {
	if cache.hit(im, gen()) {
		if reprovision != nil {
			reprovision()
		}
		return nil
	}
	cache.im = nil
	if err := parse(im, nvm); err != nil {
		return err
	}
	if err := write(*nvm); err != nil {
		return err
	}
	*cache = writeCache{im: im, imGen: im.Gen(), nvmGen: gen()}
	return nil
}

// hit reports whether installing im would re-write identical helper
// content: same image, not written since, and the device NVM untouched
// since.
func (c *writeCache) hit(im *helperdata.Image, nvmGen uint64) bool {
	return c.im != nil && c.im == im && c.imGen == im.Gen() && c.nvmGen == nvmGen
}

// NewSeqPairTarget adapts a deployed LISA device.
func NewSeqPairTarget(d *device.SeqPairDevice) Target { return &seqPairTarget{d: d} }

type seqPairTarget struct {
	d     *device.SeqPairDevice
	cache writeCache
	nvm   device.SeqPairHelperNVM
}

func (t *seqPairTarget) Spec() Spec {
	return Spec{
		Construction: "seqpair",
		Code:         t.d.Code(),
		AmbientC:     t.d.Environment().TempC,
	}
}

func (t *seqPairTarget) ReadImage() (*helperdata.Image, error) {
	h := t.d.ReadHelper()
	im := helperdata.NewImage()
	seqPairImage(im, h.Pairs.Append(nil), h.Offset.Append(nil))
	return im, nil
}

func (t *seqPairTarget) WriteImage(im *helperdata.Image) error {
	return installImage(&t.cache, &t.nvm, im, t.d.NVMGeneration,
		func(im *helperdata.Image, h *device.SeqPairHelperNVM) error {
			return seqPairInto(im, &h.Pairs, &h.Offset)
		},
		t.d.WriteHelper, nil)
}

func (t *seqPairTarget) Query() bool  { return !t.d.App() }
func (t *seqPairTarget) Queries() int { return t.d.Queries() }

// NewTempCoTarget adapts a deployed temperature-aware cooperative device.
func NewTempCoTarget(d *device.TempCoDevice) Target { return &tempCoTarget{d: d} }

type tempCoTarget struct {
	d     *device.TempCoDevice
	cache writeCache
	nvm   tempco.Helper
}

func (t *tempCoTarget) Spec() Spec {
	return Spec{
		Construction: "tempco",
		Code:         t.d.Params().Code,
		AmbientC:     t.d.Environment().TempC,
	}
}

func (t *tempCoTarget) ReadImage() (*helperdata.Image, error) {
	im := helperdata.NewImage()
	tempCoImage(im, t.d.ReadHelper().Append(nil))
	return im, nil
}

func (t *tempCoTarget) WriteImage(im *helperdata.Image) error {
	return installImage(&t.cache, &t.nvm, im, t.d.NVMGeneration,
		tempCoInto, t.d.WriteHelper, nil)
}

func (t *tempCoTarget) Query() bool  { return !t.d.App() }
func (t *tempCoTarget) Queries() int { return t.d.Queries() }

// NewGroupBasedTarget adapts a deployed group-based device (the
// reprogrammed-key observable: it also implements KeyBinder).
func NewGroupBasedTarget(d *device.GroupBasedDevice) Target { return &groupBasedTarget{d: d} }

type groupBasedTarget struct {
	d     *device.GroupBasedDevice
	cache writeCache
	nvm   groupbased.Helper
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
	h := t.d.ReadHelper()
	im := helperdata.NewImage()
	groupBasedImage(im, h.Poly.Append(nil), h.Grouping.Append(nil), h.Offset.Append(nil))
	return im, nil
}

func (t *groupBasedTarget) WriteImage(im *helperdata.Image) error {
	// The re-provision hook keeps a skipped identical write's observable
	// side effects: key re-binding and the reconstruction's noise sweep.
	return installImage(&t.cache, &t.nvm, im, t.d.NVMGeneration,
		groupBasedInto, t.d.WriteHelper, t.d.ReprovisionKey)
}

func (t *groupBasedTarget) Query() bool               { return !t.d.App() }
func (t *groupBasedTarget) Queries() int              { return t.d.Queries() }
func (t *groupBasedTarget) BindKey(key bitvec.Vector) { t.d.BindKey(key) }

// NewDistillerTarget adapts a deployed distiller + pairing device
// (reprogrammed-key observable; the Spec construction is "masking" or
// "chain" according to the device's pairing mode).
func NewDistillerTarget(d *device.DistillerPairDevice) Target { return &distillerTarget{d: d} }

type distillerTarget struct {
	d     *device.DistillerPairDevice
	cache writeCache
	nvm   device.DistillerPairHelperNVM
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
	h := t.d.ReadHelper()
	var mask []byte
	if t.d.Params().Mode == device.MaskedChain {
		mask = h.Masking.Append(nil)
	}
	im := helperdata.NewImage()
	distillerImage(im, h.Poly.Append(nil), mask, h.Offset.Append(nil))
	return im, nil
}

func (t *distillerTarget) WriteImage(im *helperdata.Image) error {
	return installImage(&t.cache, &t.nvm, im, t.d.NVMGeneration,
		func(im *helperdata.Image, h *device.DistillerPairHelperNVM) error {
			_, err := distillerInto(im, &h.Poly, &h.Masking, &h.Offset)
			return err
		},
		t.d.WriteHelper, t.d.ReprovisionKey)
}

func (t *distillerTarget) Query() bool               { return !t.d.App() }
func (t *distillerTarget) Queries() int              { return t.d.Queries() }
func (t *distillerTarget) BindKey(key bitvec.Vector) { t.d.BindKey(key) }
