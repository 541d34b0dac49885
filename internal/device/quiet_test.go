package device

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

// The quiet-App tests run every op script on two identically enrolled
// devices: live, which replays quiet Apps, and ref, whose stored
// outcome is dropped before every App, so it reconstructs every time.
// After every App the two must agree on the outcome, the query count
// and the noise state. Each script ends in an App whose replay would
// be wrong if one invalidation were skipped: a pooled re-enrollment
// restarting the NVM generations, SetEnvironment, BindKey with another
// key, a pending re-binding, and a write that keeps the readout warm
// and changes only the offset.

// quietDevice is the surface the scripts drive; state reaches the
// embedded base.
type quietDevice interface {
	App() bool
	Queries() int
	SetEnvironment(env silicon.Environment)
	state() *base
}

func (b *base) state() *base { return b }

// quietRig builds one device type for the scripts.
type quietRig struct {
	// enroll enrolls seed into prev's storage (nil for a fresh device).
	enroll func(prev quietDevice, seed uint64) quietDevice
	// helper returns a helper for d whose reconstruction draws no noise
	// at the nominal condition, and the key it reconstructs.
	helper func(d quietDevice) (any, bitvec.Vector)
	// write installs h with the first k bits of every offset block
	// flipped.
	write func(d quietDevice, h any, k int) error
	// quiet is false for a device whose Apps always draw noise.
	quiet bool
}

// quietTwin is one script's pair of devices.
type quietTwin struct {
	t         *testing.T
	rig       *quietRig
	live, ref quietDevice
	hLive     any
	hRef      any
	key       bitvec.Vector
	apps      int
}

func newQuietTwin(t *testing.T, rig *quietRig, seed uint64) *quietTwin {
	tw := &quietTwin{t: t, rig: rig}
	tw.reenroll(seed)
	return tw
}

// reenroll enrolls seed into both devices' storage and installs the
// quiet helper (binding its key on a reprogrammed-key device).
func (tw *quietTwin) reenroll(seed uint64) {
	tw.t.Helper()
	tw.live = tw.rig.enroll(tw.live, seed)
	tw.ref = tw.rig.enroll(tw.ref, seed)
	tw.hLive, tw.key = tw.rig.helper(tw.live)
	tw.hRef, _ = tw.rig.helper(tw.ref)
	tw.write(0)
}

// write installs the quiet helper with k bits of every block flipped
// and, as an attack arm does, binds the quiet key over the write's
// re-binding.
func (tw *quietTwin) write(k int) {
	tw.t.Helper()
	if err := tw.rig.write(tw.live, tw.hLive, k); err != nil {
		tw.t.Fatal(err)
	}
	if err := tw.rig.write(tw.ref, tw.hRef, k); err != nil {
		tw.t.Fatal(err)
	}
	tw.bind(tw.key)
}

// bind binds key on a reprogrammed-key device; a no-op otherwise.
func (tw *quietTwin) bind(key bitvec.Vector) {
	if l, ok := tw.live.(rebinder); ok {
		l.BindKey(key)
		tw.ref.(rebinder).BindKey(key)
	}
}

func (tw *quietTwin) setEnv(env silicon.Environment) {
	tw.live.SetEnvironment(env)
	tw.ref.SetEnvironment(env)
}

// app runs one App on both devices, fails unless they agree, and
// returns the outcome. want is the expected outcome: '1', '0', or '?'
// for either.
func (tw *quietTwin) app(want byte) bool {
	tw.t.Helper()
	tw.apps++
	got := tw.live.App()
	tw.ref.state().quiet = quietApp{}
	ref := tw.ref.App()
	if got != ref || tw.live.Queries() != tw.ref.Queries() || tw.live.state().noise != tw.ref.state().noise {
		tw.t.Fatalf("App %d: live %v (q=%d) and reference %v (q=%d) differ, noise states equal=%v",
			tw.apps, got, tw.live.Queries(), ref, tw.ref.Queries(), tw.live.state().noise == tw.ref.state().noise)
	}
	if want != '?' && got != (want == '1') {
		tw.t.Fatalf("App %d = %v, the script expects %c", tw.apps, got, want)
	}
	return got
}

// stored fails unless a quiet-App device has stored its last outcome,
// so the script's next App can replay it.
func (tw *quietTwin) stored() {
	tw.t.Helper()
	if q := tw.live.state().quiet; q.valid != tw.rig.quiet {
		tw.t.Fatalf("after App %d: stored outcome %v, want %v", tw.apps, q.valid, tw.rig.quiet)
	}
}

// flipped returns key with bit 0 flipped.
func flipped(key bitvec.Vector) bitvec.Vector {
	out := key.Clone()
	out.Flip(0)
	return out
}

// failFlips offset bits flipped per block fail every t = 3 block.
const failFlips = 4

// quietScripts are the op scripts. Each starts from a device holding
// the quiet helper (and bound to its key) at the nominal condition.
var quietScripts = map[string]func(tw *quietTwin){
	// Repeated Apps replay; the noise state advances as if each ran.
	"repeat": func(tw *quietTwin) {
		for range 4 {
			tw.app('1')
			tw.stored()
		}
	},
	// A pooled re-enrollment restarts nvmGen at 0: two writes of the
	// new device reach the generation the old device's failing App
	// was stored under.
	"reenroll": func(tw *quietTwin) {
		tw.write(failFlips)
		tw.app('0')
		tw.stored()
		tw.reenroll(2)
		tw.write(0)
		tw.app('1')
	},
	// An App at another condition is not the stored one.
	"environment": func(tw *quietTwin) {
		tw.app('1')
		tw.stored()
		nominal := tw.live.state().env
		tw.setEnv(silicon.Environment{TempC: nominal.TempC + 150, VoltageV: nominal.VoltageV})
		tw.app('?')
		tw.app('?')
		tw.setEnv(nominal)
		tw.app('1')
	},
	// A write that changes only the offset leaves the readout warm;
	// t+1 flipped bits fail the block.
	"offset": func(tw *quietTwin) {
		tw.app('1')
		tw.stored()
		tw.write(failFlips)
		tw.app('0')
		tw.write(0)
		tw.app('1')
	},
}

// bindingScripts add the reprogrammed-key devices' invalidations.
var quietBindingScripts = map[string]func(tw *quietTwin){
	// Binding another key changes the outcome; binding the same key
	// again keeps the stored one.
	"bind": func(tw *quietTwin) {
		tw.app('1')
		tw.stored()
		tw.bind(tw.key)
		tw.app('1')
		tw.bind(flipped(tw.key))
		tw.app('0')
		tw.bind(tw.key)
		tw.app('1')
	},
	// A pending re-binding re-binds the key the helper reconstructs,
	// so the App after it works although the stored one failed.
	"pending": func(tw *quietTwin) {
		tw.bind(flipped(tw.key))
		tw.app('0')
		tw.stored()
		tw.live.(rebinder).ReprovisionKey()
		tw.ref.(rebinder).ReprovisionKey()
		tw.app('1')
		tw.app('1')
	},
}

func runQuietScripts(t *testing.T, rig *quietRig) {
	t.Helper()
	scripts := map[string]func(*quietTwin){}
	for name, s := range quietScripts {
		scripts[name] = s
	}
	if _, ok := rig.enroll(nil, 1).(rebinder); ok {
		for name, s := range quietBindingScripts {
			scripts[name] = s
		}
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			tw := newQuietTwin(t, rig, 1)
			script(tw)
		})
	}
}

// offsetFor returns the offset binding stream to the zero codeword of
// code: the stream zero-padded to whole blocks.
func offsetFor(code ecc.Code, stream bitvec.Vector) bitvec.Vector {
	var sk ecc.Sketch
	sk.Size(code, stream.Len())
	off := sk.Stream()
	off.PutAt(0, stream)
	return off.Clone()
}

// steep superimposes a plane that separates every two oscillators of
// the array by at least 1000 MHz, so no comparison draws noise.
func steep(p distiller.Poly2D) distiller.Poly2D {
	return p.AddInto(distiller.Plane(0, 1000, 10000), nil)
}

// residuals returns the noise-free compared values of d's array at its
// condition under the surface of p.
func residuals(b *base, p distiller.Poly2D) []float64 {
	a := b.arr
	f := a.TrueFreqInto(make([]float64, a.N()), b.env)
	return distiller.DistillWithGrid(nil, f, p.EvalGrid(a.Config().Rows, a.Config().Cols, nil))
}

func TestQuietAppReplaySeqPair(t *testing.T) {
	p := SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
		EnrollReps:   20,
	}
	runQuietScripts(t, &quietRig{
		enroll: func(prev quietDevice, seed uint64) quietDevice {
			pd, _ := prev.(*SeqPairDevice)
			d, err := EnrollSeqPairReuse(pd, p, rng.New(seed), rng.New(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		helper: func(d quietDevice) (any, bitvec.Vector) {
			sd := d.(*SeqPairDevice)
			return sd.ReadHelper(), sd.TrueKey()
		},
		write: func(d quietDevice, h any, k int) error {
			nvm := h.(SeqPairHelperNVM)
			nvm.Offset = flipBlocks(nvm.Offset, p.Code.N(), k)
			return d.(*SeqPairDevice).WriteHelper(nvm)
		},
		quiet: true,
	})
}

func TestQuietAppReplayTempCo(t *testing.T) {
	p := tempco.Params{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.6,
		TminC:        -20, TmaxC: 80,
		Policy:     tempco.RandomSelection,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps: 25,
	}
	runQuietScripts(t, &quietRig{
		enroll: func(prev quietDevice, seed uint64) quietDevice {
			pd, _ := prev.(*TempCoDevice)
			d, err := EnrollTempCoReuse(pd, p, rng.New(seed), rng.New(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		helper: func(d quietDevice) (any, bitvec.Vector) {
			td := d.(*TempCoDevice)
			return td.ReadHelper(), td.TrueKey()
		},
		write: func(d quietDevice, h any, k int) error {
			nvm := h.(tempco.Helper)
			nvm.Offset = flipBlocks(nvm.Offset, p.Code.N(), k)
			return d.(*TempCoDevice).WriteHelper(nvm)
		},
		// Every App draws noise for the enrolled pairs' oscillators,
		// so nothing is ever stored: the scripts only check that the
		// replay never fires.
		quiet: false,
	})
}

func TestQuietAppReplayGroupBased(t *testing.T) {
	p := groupbased.Params{
		Rows: 4, Cols: 10,
		Degree:       2,
		ThresholdMHz: 0.5,
		MaxGroupSize: 6,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   25,
	}
	runQuietScripts(t, &quietRig{
		enroll: func(prev quietDevice, seed uint64) quietDevice {
			pd, _ := prev.(*GroupBasedDevice)
			d, err := EnrollGroupBasedReuse(pd, p, rng.New(seed), rng.New(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		// Horizontal neighbours paired under a steep surface: each
		// pair's Kendall bit, which is also its key bit, is fixed.
		helper: func(d quietDevice) (any, bitvec.Vector) {
			gd := d.(*GroupBasedDevice)
			h := gd.ReadHelper()
			h.Poly = steep(h.Poly)
			n := gd.arr.N()
			h.Grouping.Assign = make([]int, n)
			for ro := range n {
				h.Grouping.Assign[ro] = ro / 2
			}
			resid := residuals(&gd.base, h.Poly)
			key := bitvec.New(n / 2)
			for id := range n / 2 {
				key.Set(id, resid[2*id+1] > resid[2*id])
			}
			h.Offset = offsetFor(p.Code, key)
			return h, key
		},
		write: func(d quietDevice, h any, k int) error {
			nvm := h.(groupbased.Helper)
			nvm.Offset = flipBlocks(nvm.Offset, p.Code.N(), k)
			return d.(*GroupBasedDevice).WriteHelper(nvm)
		},
		quiet: true,
	})
}

func TestQuietAppReplayDistillerPair(t *testing.T) {
	for _, mode := range []PairingMode{MaskedChain, OverlappingChain} {
		t.Run(mode.String(), func(t *testing.T) {
			p := DistillerPairParams{
				Rows: 4, Cols: 10,
				Degree:     2,
				Mode:       mode,
				K:          5,
				Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
				EnrollReps: 25,
			}
			if mode == OverlappingChain {
				p.K = 0
			}
			runQuietScripts(t, &quietRig{
				enroll: func(prev quietDevice, seed uint64) quietDevice {
					pd, _ := prev.(*DistillerPairDevice)
					d, err := EnrollDistillerPairReuse(pd, p, rng.New(seed), rng.New(seed+1))
					if err != nil {
						t.Fatal(err)
					}
					return d
				},
				// The enrolled pairs (or masking selections) under a
				// steep surface.
				helper: func(d quietDevice) (any, bitvec.Vector) {
					dd := d.(*DistillerPairDevice)
					h := dd.ReadHelper()
					h.Poly = steep(h.Poly)
					pairs := dd.basePair
					if mode == MaskedChain {
						var err error
						if pairs, err = h.Masking.SelectedPairsInto(nil, dd.basePair); err != nil {
							t.Fatal(err)
						}
					}
					key := pairing.Responses(residuals(&dd.base, h.Poly), pairs)
					h.Offset = offsetFor(p.Code, key)
					return h, key
				},
				write: func(d quietDevice, h any, k int) error {
					nvm := h.(DistillerPairHelperNVM)
					nvm.Offset = flipBlocks(nvm.Offset, p.Code.N(), k)
					return d.(*DistillerPairDevice).WriteHelper(nvm)
				},
				quiet: true,
			})
		})
	}
}
