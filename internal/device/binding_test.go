package device

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// The reprogrammed-key devices re-bind their application key on every
// helper write. These scripts pin that observable as recorded vectors:
// each character is one App() outcome ('1' works, '0' fails), a '|'
// marks a scripted op between queries, and the trailing q= is
// Queries(). Every device runs at an operating condition (its edge)
// where a reconstruction succeeds only on some measurement sweeps, so
// the vectors depend on which sweep and which condition every
// reconstruction — the re-binding one included — ran at: a change that
// moves a reconstruction to another sweep or environment, skips one, or
// draws an extra sweep changes them. The vectors were recorded from
// devices that ran the re-binding reconstruction inside the write; the
// deferred re-binding must reproduce them exactly.

// rebinder is the write/rebind surface shared by the two
// reprogrammed-key device types.
type rebinder interface {
	Device
	ReprovisionKey()
	BindKey(key bitvec.Vector)
}

// bindingRig builds one device type for the scripts.
type bindingRig struct {
	// fresh enrolls a new device; reenroll enrolls the same seeds into
	// d's storage through the Enroll*Reuse path.
	fresh    func() rebinder
	reenroll func(d rebinder) rebinder
	// write installs the rig's perturbed helper, returning the device's
	// error.
	write func(d rebinder) error
	// edge is the operating condition at which outcomes are noisy.
	edge silicon.Environment
	// key is the key the written helper reconstructs without noise,
	// for BindKey.
	key func(d rebinder) bitvec.Vector
}

// bindingScript drives one device through a scripted op sequence.
type bindingScript struct {
	t       *testing.T
	rig     *bindingRig
	d       rebinder
	nominal silicon.Environment
	out     strings.Builder
}

func (s *bindingScript) apps(n int) {
	for i := 0; i < n; i++ {
		if s.d.App() {
			s.out.WriteByte('1')
		} else {
			s.out.WriteByte('0')
		}
	}
}

func (s *bindingScript) write() {
	s.t.Helper()
	if err := s.rig.write(s.d); err != nil {
		s.t.Fatal(err)
	}
}

func (s *bindingScript) op()            { s.out.WriteByte('|') }
func (s *bindingScript) result() string { return fmt.Sprintf("%s q=%d", s.out.String(), s.d.Queries()) }

// bindingScripts are the op sequences run on every device type.
var bindingScripts = map[string]func(s *bindingScript){
	// The re-binding reconstruction is never bound over, so App
	// compares against the key it reconstructed.
	"write-app": func(s *bindingScript) {
		s.d.SetEnvironment(s.rig.edge)
		s.write()
		s.apps(24)
	},
	// The re-binding reconstruction runs at the condition of the write,
	// not of the App that first observes it.
	"write-env-app": func(s *bindingScript) {
		for i := 0; i < 6; i++ {
			s.d.SetEnvironment(s.nominal)
			s.write()
			s.d.SetEnvironment(s.rig.edge)
			s.op()
			s.apps(3)
		}
	},
	"env-write-env-app": func(s *bindingScript) {
		for i := 0; i < 6; i++ {
			s.d.SetEnvironment(s.rig.edge)
			s.write()
			s.d.SetEnvironment(s.nominal)
			s.op()
			s.apps(3)
		}
	},
	// The first write's binding is replaced, but its sweep was drawn.
	"write-write-app": func(s *bindingScript) {
		s.d.SetEnvironment(s.rig.edge)
		for i := 0; i < 6; i++ {
			s.write()
			s.write()
			s.op()
			s.apps(3)
		}
	},
	// Identical re-installs re-bind without re-writing.
	"reprovision": func(s *bindingScript) {
		s.d.SetEnvironment(s.rig.edge)
		s.write()
		s.apps(4)
		s.d.ReprovisionKey()
		s.op()
		s.apps(8)
		s.d.ReprovisionKey()
		s.d.ReprovisionKey()
		s.op()
		s.apps(8)
	},
	// The attack arm: write, then bind the predicted key over the
	// write's binding, whose sweep was still drawn.
	"write-bind-app": func(s *bindingScript) {
		s.d.SetEnvironment(s.rig.edge)
		s.write()
		s.d.BindKey(s.rig.key(s.d))
		s.op()
		s.apps(12)
		s.d.ReprovisionKey()
		s.d.BindKey(s.rig.key(s.d))
		s.op()
		s.apps(12)
	},
	// Re-enrolling (the same seeds) over a device whose last write
	// re-bound the key leaves no trace of that write: App compares
	// against the enrolled key.
	"reuse": func(s *bindingScript) {
		s.d.SetEnvironment(s.rig.edge)
		s.write()
		s.apps(1)
		s.write()
		s.d = s.rig.reenroll(s.d)
		s.op()
		s.apps(8)
		s.d.SetEnvironment(s.rig.edge)
		s.op()
		s.apps(16)
	},
}

// runBindingScripts runs every script on a fresh device of the rig and
// compares the vectors against want. Every recorded vector must hold
// both outcomes, since a constant vector is also what a device failing,
// or passing, every App would give. reuse is exempt: after its
// re-enrollment the device reconstructs against its own enrolled
// helper, with the whole error budget left for noise, so all ones is
// a legitimate record there.
func runBindingScripts(t *testing.T, rig *bindingRig, want map[string]string) {
	t.Helper()
	for _, name := range slices.Sorted(maps.Keys(bindingScripts)) {
		if outcomes, _, _ := strings.Cut(want[name], " q="); name != "reuse" &&
			!(strings.Contains(outcomes, "0") && strings.Contains(outcomes, "1")) {
			t.Errorf("%s: recorded vector %q does not hold both outcomes; move the rig's edge", name, want[name])
		}
		d := rig.fresh()
		s := &bindingScript{t: t, rig: rig, d: d, nominal: d.Environment()}
		bindingScripts[name](s)
		if got := s.result(); got != want[name] {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want[name])
		}
	}
}

// flipBlocks returns a copy of v with the first k bits of every block
// of length n flipped (bits past v's end skipped). Flipping code-offset
// bits flips the same bits of the recovered response.
func flipBlocks(v bitvec.Vector, n, k int) bitvec.Vector {
	out := v.Clone()
	for b := 0; b < out.Len(); b += n {
		for i := b; i < b+k && i < out.Len(); i++ {
			out.Flip(i)
		}
	}
	return out
}

func TestDeferredBindingMatchesRecordedOutcomes(t *testing.T) {
	t.Run("groupbased", func(t *testing.T) {
		p := groupbased.Params{
			Rows: 4, Cols: 10,
			Degree:       2,
			ThresholdMHz: 0.5,
			MaxGroupSize: 6,
			Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps:   25,
		}
		enroll := func(prev rebinder, seed uint64) rebinder {
			gd, _ := prev.(*GroupBasedDevice)
			d, err := EnrollGroupBasedReuse(gd, p, rng.New(seed), rng.New(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		enrolled := enroll(nil, 61).(*GroupBasedDevice).ReadHelper()
		rig := &bindingRig{
			fresh:    func() rebinder { return enroll(nil, 61) },
			reenroll: func(d rebinder) rebinder { return enroll(d, 61) },
			// The enrolled helper, rewritten: any offset flip makes the
			// corrected Kendall stream non-transitive.
			write: func(d rebinder) error { return d.(*GroupBasedDevice).WriteHelper(enrolled) },
			edge:  silicon.Environment{TempC: 55, VoltageV: 1.2},
			key:   func(d rebinder) bitvec.Vector { return d.(*GroupBasedDevice).TrueKey() },
		}
		runBindingScripts(t, rig, map[string]string{
			"env-write-env-app": "|111|000|000|111|111|000 q=18",
			"reprovision":       "0010|00010110|00000000 q=20",
			"reuse":             "0|11111111|0101100011000001 q=24",
			"write-app":         "001010001011000110000011 q=24",
			"write-bind-app":    "|001010001011|001100000110 q=24",
			"write-env-app":     "|001|100|101|000|100|001 q=18",
			"write-write-app":   "|000|000|100|100|000|000 q=18",
		})

		// A helper that passes WriteHelper's structural checks but fails
		// the reconstruction's refresh: one group holding every
		// oscillator codes a Kendall stream far longer than the offset.
		// Neither the write nor the failing Apps measure anything.
		s := &bindingScript{t: t, rig: rig, d: rig.fresh()}
		gd := s.d.(*GroupBasedDevice)
		bad := gd.ReadHelper()
		bad.Grouping = groupbased.Grouping{Assign: make([]int, len(bad.Grouping.Assign))}
		gd.SetEnvironment(rig.edge)
		if err := gd.WriteHelper(bad); err != nil {
			t.Fatalf("refresh-failing helper rejected by WriteHelper: %v", err)
		}
		s.op()
		s.apps(4)
		s.d.ReprovisionKey()
		s.op()
		s.apps(2)
		s.write()
		s.op()
		s.apps(16)
		if got, want := s.result(), "|0000|00|0010100010110001 q=22"; got != want {
			t.Errorf("refresh-fail:\n got %q\nwant %q", got, want)
		}
	})
	for _, tc := range []struct {
		mode  PairingMode
		k     int
		flips int
		edge  float64
		want  map[string]string
	}{
		{MaskedChain, 2, 3, 95, map[string]string{
			"env-write-env-app": "|111|111|000|000|000|000 q=18",
			"reprovision":       "1111|01011101|00010011 q=20",
			"reuse":             "1|11111111|1111111111111111 q=24",
			"write-app":         "111110101110111000100111 q=24",
			"write-bind-app":    "|111110101110|110001001111 q=24",
			"write-env-app":     "|111|101|111|111|001|011 q=18",
			"write-write-app":   "|111|010|011|110|000|010 q=18",
		}},
		// At 75 C, where these vectors were first recorded, the current
		// enrollment draw leaves a response bit that reconstructions
		// there get wrong on every sweep the scripts draw; the written
		// offset flips use the whole error budget, so three scripts
		// read constant zeros. At 60 C every script's outcomes are mixed.
		{OverlappingChain, 0, 3, 60, map[string]string{
			"env-write-env-app": "|101|000|000|111|111|111 q=18",
			"reprovision":       "1010|01011111|10101101 q=20",
			"reuse":             "1|11111111|1111111111111111 q=24",
			"write-app":         "101010101111101101011011 q=24",
			"write-bind-app":    "|101010101111|011010110110 q=24",
			"write-env-app":     "|101|101|111|101|010|101 q=18",
			"write-write-app":   "|010|000|110|010|011|000 q=18",
		}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			p := DistillerPairParams{
				Rows: 4, Cols: 10,
				Degree:     2,
				Mode:       tc.mode,
				K:          tc.k,
				Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
				EnrollReps: 15,
			}
			enroll := func(prev rebinder, seed uint64) rebinder {
				dd, _ := prev.(*DistillerPairDevice)
				d, err := EnrollDistillerPairReuse(dd, p, rng.New(seed), rng.New(seed+1))
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			written := enroll(nil, 71).(*DistillerPairDevice).ReadHelper()
			written.Offset = flipBlocks(written.Offset, p.Code.N(), tc.flips)
			rig := &bindingRig{
				fresh:    func() rebinder { return enroll(nil, 71) },
				reenroll: func(d rebinder) rebinder { return enroll(d, 71) },
				// Flipped offset bits leave the reconstruction no
				// error budget for measurement noise.
				write: func(d rebinder) error { return d.(*DistillerPairDevice).WriteHelper(written) },
				edge:  silicon.Environment{TempC: tc.edge, VoltageV: 1.2},
				key: func(d rebinder) bitvec.Vector {
					key := d.(*DistillerPairDevice).TrueKey()
					return flipBlocks(key, p.Code.N(), tc.flips)
				},
			}
			runBindingScripts(t, rig, tc.want)
		})
	}
}
