package silicon

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// readoutSigmas and readoutWindows span the noise levels and counter
// windows the differential checks run at: σ = 0 (every comparison
// fixed or tied), the canonical 0.05, the conformance levels 0.3 and
// 0.5, and 2.0, where most comparisons are noisy.
var (
	readoutSigmas  = []float64{0, 0.05, 0.3, 0.5, 2.0}
	readoutWindows = []float64{0, 0.37, 5}
)

// readoutOffsets builds the offset vectors of the differential checks
// for an n-oscillator array: none, a smooth surface, huge values that
// swallow the frequency in rounding, and a smooth surface with NaN and
// infinities in it.
func readoutOffsets(n int) map[string][]float64 {
	smooth := make([]float64, n)
	huge := make([]float64, n)
	bad := make([]float64, n)
	for i := range smooth {
		smooth[i] = 3*math.Sin(float64(i)/7) + 0.01*float64(i%5)
		huge[i] = 1e300
		if i%3 == 0 {
			huge[i] = -1e300
		}
		bad[i] = smooth[i]
		switch i % 11 {
		case 2:
			bad[i] = math.NaN()
		case 5:
			bad[i] = math.Inf(1)
		case 7:
			bad[i] = math.Inf(-1)
		}
	}
	return map[string][]float64{"nil": nil, "smooth": smooth, "huge": huge, "nonfinite": bad}
}

// checkReadout drives one readout through sweeps queries of the given
// comparisons (pairs, then groups compared all-against-all) at env and
// requires every compared outcome, > in both directions and ==, to
// equal the outcome of MeasureSparse of the compared oscillators over a
// copy of the same noise state, with the sweep counters ending in the
// same place. It returns the noisy and compared oscillator counts.
func checkReadout(t testing.TB, a *Array, env Environment, off []float64, pairs [][2]int, groups [][]int, nm *Noise, sweeps int) (noisy, compared int) {
	t.Helper()
	var ro Readout
	ro.SetOffsets(off)
	if !ro.Stale(a, env) {
		t.Fatal("fresh readout is not stale")
	}
	type cmp struct{ i, j int }
	var cmps []cmp
	var idxs []int
	for _, p := range pairs {
		ro.Compare(p[0], p[1])
		cmps = append(cmps, cmp{p[0], p[1]})
		idxs = append(idxs, p[0], p[1])
	}
	for _, g := range groups {
		ro.CompareAll(g)
		for _, i := range g {
			for _, j := range g {
				cmps = append(cmps, cmp{i, j})
			}
		}
		idxs = append(idxs, g...)
	}
	ro.Split()
	slices.Sort(idxs)
	idxs = slices.Compact(idxs)
	if !slices.IsSorted(ro.noisy) {
		t.Fatalf("noisy set %v is not ascending", ro.noisy)
	}
	for _, i := range ro.noisy {
		if _, found := slices.BinarySearch(idxs, i); !found {
			t.Fatalf("osc %d is noisy but never compared", i)
		}
	}
	value := func(f []float64, i int) float64 {
		if off == nil {
			return f[i]
		}
		return f[i] - off[i]
	}
	want := make([]float64, a.N())
	for s := 0; s < sweeps; s++ {
		if ro.Stale(a, env) {
			t.Fatal("noisy set dropped without a change")
		}
		ref := *nm
		got := ro.Measure(nm)
		a.MeasureSparse(want, idxs, env, &ref)
		if ref != *nm {
			t.Fatalf("sweep %d: readout noise at %+v, reference at %+v", s, *nm, ref)
		}
		for _, c := range cmps {
			gi, gj := got[c.i], got[c.j]
			wi, wj := value(want, c.i), value(want, c.j)
			if (gi > gj) != (wi > wj) || (gj > gi) != (wj > wi) || (gi == gj) != (wi == wj) {
				t.Fatalf("sweep %d: osc %d vs %d: readout %v, %v; measured %v, %v", s, c.i, c.j, gi, gj, wi, wj)
			}
		}
	}
	return ro.Noisy(), len(idxs)
}

// TestReadoutMatchesMeasureSparse is the readout's exactness check:
// over every noise level, counter window and offset kind, random pair
// lists and groups compare exactly as under a full noisy measurement
// of the same sweeps.
func TestReadoutMatchesMeasureSparse(t *testing.T) {
	src := rng.New(2024)
	for _, sigma := range readoutSigmas {
		for _, window := range readoutWindows {
			cfg := DefaultConfig(8, 16)
			cfg.NoiseSigmaMHz, cfg.CounterWindowUS = sigma, window
			a := NewArray(cfg, rng.New(7))
			n := a.N()
			for name, off := range readoutOffsets(n) {
				nm := a.NewNoise(rng.New(11))
				noisy, compared := 0, 0
				for round := 0; round < 12; round++ {
					env := cfg.NominalEnv()
					if round%3 == 1 {
						env.TempC = 85
					}
					pairs := make([][2]int, 1+src.Intn(40))
					for k := range pairs {
						pairs[k] = [2]int{src.Intn(n), src.Intn(n)}
					}
					order := make([]int, n)
					src.Perm(order)
					group := make([]int, 0, 8)
					for _, i := range order[:2+src.Intn(6)] {
						group = append(group, i)
					}
					k, c := checkReadout(t, a, env, off, pairs, [][]int{group}, nm, 10)
					noisy += k
					compared += c
				}
				if name == "nil" && sigma == 0.05 && noisy == compared {
					t.Errorf("σ=%v window=%v: every compared oscillator is noisy", sigma, window)
				}
				if name == "nil" && sigma == 2.0 && noisy == 0 {
					t.Errorf("σ=%v window=%v: no oscillator is noisy", sigma, window)
				}
			}
		}
	}
}

// TestReadoutBoundsCoverNormMax pins the width of the readout's
// intervals to the exactness argument: every oscillator's interval
// must contain quantize(base ± σ·NormMax) − off, the extreme compared
// values a variate can produce. A narrower bound passes the
// differential checks, because draws beyond 3σ are too rare to sample,
// yet lets a far draw flip a comparison the readout reads noise-free.
func TestReadoutBoundsCoverNormMax(t *testing.T) {
	for _, sigma := range readoutSigmas {
		for _, window := range readoutWindows {
			cfg := DefaultConfig(8, 16)
			cfg.NoiseSigmaMHz, cfg.CounterWindowUS = sigma, window
			a := NewArray(cfg, rng.New(7))
			n := a.N()
			env := cfg.NominalEnv()
			base := make([]float64, n)
			a.TrueFreqInto(base, env)
			offs := readoutOffsets(n)
			for _, name := range []string{"nil", "smooth"} {
				off := offs[name]
				var ro Readout
				ro.SetOffsets(off)
				ro.Stale(a, env)
				lo, hi := ro.vals[n:2*n], ro.vals[2*n:3*n]
				s := sigma * rng.NormMax
				for i, b := range base {
					wantLo, wantHi := quantizeWindow(b-s, window), quantizeWindow(b+s, window)
					if off != nil {
						wantLo -= off[i]
						wantHi -= off[i]
					}
					if lo[i] > wantLo || hi[i] < wantHi {
						t.Fatalf("σ=%v window=%v offsets=%s: osc %d interval [%v, %v] misses [%v, %v]",
							sigma, window, name, i, lo[i], hi[i], wantLo, wantHi)
					}
				}
			}
		}
	}
}

// TestReadoutFollowsChanges checks the readout's invalidation: a
// query reads noise-free values wherever no compared partner overlaps,
// an oscillator that leaves the noisy set reads its noise-free value
// again, and an environment change, new offsets and Reset (an array
// re-drawn under the same pointer) all rebuild the noise-free values.
func TestReadoutFollowsChanges(t *testing.T) {
	cfg := DefaultConfig(4, 8)
	cfg.NoiseSigmaMHz = 2
	a := NewArray(cfg, rng.New(3))
	env := cfg.NominalEnv()
	nm := a.NewNoise(rng.New(4))
	// Oscillators 0 and 1 sit 0.1 MHz apart after their offsets, well
	// inside the noise; oscillator 2 is 1000 MHz above both.
	off := make([]float64, a.N())
	off[0] = a.TrueFreq(0, env)
	off[1] = a.TrueFreq(1, env) - 0.1
	off[2] = a.TrueFreq(2, env) - 1000
	var ro Readout
	ro.SetOffsets(off)
	query := func(i, j int) []float64 {
		t.Helper()
		if !ro.Stale(a, env) {
			t.Fatal("expected a stale noisy set")
		}
		ro.Compare(i, j)
		ro.Split()
		return ro.Measure(nm)
	}
	quiet := func(label string, got []float64, i int) {
		t.Helper()
		if want := a.TrueFreq(i, env) - off[i]; got[i] != want {
			t.Fatalf("%s: osc %d reads %v, noise-free %v", label, i, got[i], want)
		}
	}
	if got := query(0, 1); ro.Noisy() != 2 || got[0] == a.TrueFreq(0, env)-off[0] {
		t.Fatalf("overlapping pair: %d noisy, osc 0 reads %v", ro.Noisy(), got[0])
	}
	ro.Invalidate()
	got := query(0, 2)
	if ro.Noisy() != 0 {
		t.Fatalf("separated pair: %d noisy", ro.Noisy())
	}
	quiet("after leaving the noisy set", got, 0)
	env.TempC = 60
	off[0] = a.TrueFreq(0, env)
	ro.SetOffsets(off)
	quiet("new environment and offsets", query(0, 2), 0)
	a.Remanufactured(cfg, rng.New(5))
	ro.Reset()
	quiet("remanufactured", query(0, 2), 2)
}

// FuzzReadout runs the differential check of
// TestReadoutMatchesMeasureSparse on fuzzer-chosen noise level, window,
// offsets and comparisons.
func FuzzReadout(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint8(0), []byte{0, 1, 2, 3, 17, 18, 40, 41})
	f.Add(uint64(2), uint8(3), uint8(1), uint8(1), []byte{5, 5, 9, 100, 127, 0})
	f.Add(uint64(3), uint8(4), uint8(2), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint64(4), uint8(0), uint8(2), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, sigmaSel, windowSel, offSel uint8, comparisons []byte) {
		cfg := DefaultConfig(8, 16)
		cfg.NoiseSigmaMHz = readoutSigmas[int(sigmaSel)%len(readoutSigmas)]
		cfg.CounterWindowUS = readoutWindows[int(windowSel)%len(readoutWindows)]
		a := NewArray(cfg, rng.New(seed))
		n := a.N()
		offs := readoutOffsets(n)
		off := offs[[]string{"nil", "smooth", "huge", "nonfinite"}[int(offSel)%4]]
		// Byte pairs become comparisons; a trailing odd byte list
		// becomes one group (its distinct members).
		var pairs [][2]int
		for k := 0; k+1 < len(comparisons); k += 2 {
			pairs = append(pairs, [2]int{int(comparisons[k]) % n, int(comparisons[k+1]) % n})
		}
		var groups [][]int
		if len(comparisons)%2 == 1 {
			var g []int
			for _, b := range comparisons {
				if i := int(b) % n; !slices.Contains(g, i) {
					g = append(g, i)
				}
			}
			groups = append(groups, g)
		}
		env := cfg.NominalEnv()
		env.TempC += float64(seed % 90)
		checkReadout(t, a, env, off, pairs, groups, a.NewNoise(rng.New(seed+1)), 4)
	})
}
