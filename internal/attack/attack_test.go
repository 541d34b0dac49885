package attack

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
)

func seqPairDevice(t testing.TB, seed uint64) *device.SeqPairDevice {
	t.Helper()
	d, err := device.EnrollSeqPair(device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
		EnrollReps:   20,
	}, rng.New(seed), rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func groupBasedDevice(t testing.TB, seed uint64) *device.GroupBasedDevice {
	t.Helper()
	d, err := device.EnrollGroupBased(groupbased.Params{
		Rows: 4, Cols: 10,
		Degree:       2,
		ThresholdMHz: 0.5,
		MaxGroupSize: 6,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   25,
	}, rng.New(seed), rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func chainDevice(t testing.TB, seed uint64) *device.DistillerPairDevice {
	t.Helper()
	d, err := device.EnrollDistillerPair(device.DistillerPairParams{
		Rows: 4, Cols: 10,
		Degree: 2, Mode: device.OverlappingChain,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps: 25,
	}, rng.New(seed), rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRegistryHasAllFiveAttacks(t *testing.T) {
	want := []string{"chain", "groupbased", "masking", "seqpair", "tempco"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry names %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry names %v, want %v", got, want)
		}
	}
	if _, ok := Lookup("seqpair"); !ok {
		t.Fatal("seqpair not found")
	}
	if _, ok := Lookup("nonexistent"); ok {
		t.Fatal("phantom attack found")
	}
	if _, err := Run(context.Background(), "nonexistent", nil, Options{}); err == nil {
		t.Fatal("unknown attack must error")
	}
}

func TestImageRoundTrips(t *testing.T) {
	// seqpair
	sd := seqPairDevice(t, 3)
	st := NewSeqPairTarget(sd)
	im, err := st.ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seqpair NVM image: %d bytes, sections %v", len(raw), im.Names())
	if err := st.WriteImage(im); err != nil {
		t.Fatalf("round-trip write rejected: %v", err)
	}
	// groupbased
	gd := groupBasedDevice(t, 3)
	gt := NewGroupBasedTarget(gd)
	gim, err := gt.ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.WriteImage(gim); err != nil {
		t.Fatalf("round-trip write rejected: %v", err)
	}
	// A seqpair image written to a groupbased device must fail parsing,
	// not get silently accepted.
	if err := gt.WriteImage(im); err == nil {
		t.Fatal("cross-construction image accepted")
	}
}

func TestRunReportsPhases(t *testing.T) {
	d := seqPairDevice(t, 7)
	var phases []string
	rep, err := Run(context.Background(), "seqpair", NewSeqPairTarget(d), Options{
		Dist: DefaultDistinguisher(),
		Progress: func(p Progress) {
			if len(phases) == 0 || phases[len(phases)-1] != p.Phase {
				phases = append(phases, p.Phase)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Key.Equal(d.TrueKey()) {
		t.Fatal("key not recovered")
	}
	if rep.Attack != "seqpair" || rep.Queries <= 0 || rep.Elapsed <= 0 {
		t.Fatalf("report header incomplete: %+v", rep)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases %v", rep.Phases)
	}
	sum := 0
	for _, ph := range rep.Phases {
		sum += ph.Queries
	}
	if sum != rep.Queries {
		t.Fatalf("phase queries sum %d != total %d", sum, rep.Queries)
	}
	if len(phases) == 0 || phases[0] != "calibrate" {
		t.Fatalf("progress phases %v", phases)
	}
}

func TestQueryBudgetEnforced(t *testing.T) {
	d := seqPairDevice(t, 9)
	rep, err := Run(context.Background(), "seqpair", NewSeqPairTarget(d), Options{
		Dist:        DefaultDistinguisher(),
		QueryBudget: 30, // enough for neither calibration round
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v (report %+v), want budget exhaustion", err, rep)
	}
	if q := d.Queries(); q > 30 {
		t.Fatalf("budget of 30 overshot: %d queries spent", q)
	}
}

func TestContextCancellationStopsAttack(t *testing.T) {
	d := seqPairDevice(t, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, "seqpair", NewSeqPairTarget(d), Options{Dist: DefaultDistinguisher()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if q := d.Queries(); q > 0 {
		t.Fatalf("cancelled attack still spent %d queries", q)
	}
}

// TestBatchTargetRecovers confirms the forked-noise oracle still drives
// the attacks to full recovery (the statistics are unchanged even though
// the forked noise differs from the serial transcript).
func TestBatchTargetRecovers(t *testing.T) {
	d := seqPairDevice(t, 31)
	bt, err := NewBatchTarget(NewSeqPairTarget(d), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), "seqpair", bt, Options{Dist: DefaultDistinguisher()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Key.Equal(d.TrueKey()) {
		t.Fatalf("batched attack failed:\n got %s\nwant %s", rep.Key, d.TrueKey())
	}
	if rep.Queries <= 0 {
		t.Fatal("no queries accounted")
	}
}

func TestBatchTargetRequiresForker(t *testing.T) {
	if _, err := NewBatchTarget(fakeTarget{}, 2, 1); err == nil {
		t.Fatal("non-forkable target accepted")
	}
}

type fakeTarget struct{ Target }

// BenchmarkBatchDistinguisher measures the distinguisher hot path
// through the batched backend at 1 worker versus all cores. The >1
// worker speedup materializes on multi-core hosts; the results are
// bit-identical either way (TestTranscriptWorkerInvariance at the
// repository root pins that contract per attack and noise model).
func BenchmarkBatchDistinguisher(b *testing.B) {
	counts := []int{1}
	if runtime.NumCPU() > 1 {
		counts = append(counts, runtime.NumCPU())
	}
	for _, workers := range counts {
		b.Run(benchName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := seqPairDevice(b, 41)
				bt, err := NewBatchTarget(NewSeqPairTarget(d), workers, 5)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Run(context.Background(), "seqpair", bt, Options{
					Dist: Distinguisher{Strategy: FixedSample, Queries: 12},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	if workers == 1 {
		return "workers=1"
	}
	return "workers=numcpu"
}

// TestBatchTargetCounterSpec pins the adapter surface the batched
// backend exposes: the forked-oracle target reports the wrapped
// device's Spec() and still drives the attack to recovery.
// (Worker-count invariance is pinned per attack by
// TestTranscriptWorkerInvariance at the repository root.)
func TestBatchTargetCounterSpec(t *testing.T) {
	d, err := device.EnrollSeqPair(device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
		EnrollReps:   20,
	}, rng.New(21), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBatchTarget(NewSeqPairTarget(d), 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := bt.Spec(); got.Construction != "seqpair" || got.Code.N() != d.Code().N() {
		t.Fatalf("batched spec = %+v, want the seqpair device's", got)
	}
	rep, err := Run(context.Background(), "seqpair", bt, Options{Dist: DefaultDistinguisher()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Key.Equal(d.TrueKey()) {
		t.Fatal("counter-mode batched attack failed")
	}
}
