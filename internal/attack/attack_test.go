package attack

import (
	"context"
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
)

func seqPairDevice(t testing.TB, seed uint64) *device.SeqPairDevice {
	t.Helper()
	d, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
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
	d, err := device.EnrollGroupBasedReuse(nil, groupbased.Params{
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
	d, err := device.EnrollDistillerPairReuse(nil, device.DistillerPairParams{
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

// The zero Options.Dist is the sequential default: on each attack's
// first golden seed it recovers the same key with the same queries as
// an explicit DefaultDistinguisher.
func TestZeroDistinguisherIsDefault(t *testing.T) {
	targets := map[string]func() Target{
		"seqpair":    func() Target { return NewSeqPairTarget(seqPairDevice(t, 5)) },
		"tempco":     func() Target { return NewTempCoTarget(tempcoDevice(t, 7)) },
		"groupbased": func() Target { return NewGroupBasedTarget(groupBasedDevice(t, 9)) },
		"masking":    func() Target { return NewDistillerTarget(maskingDevice(t, 11)) },
		"chain":      func() Target { return NewDistillerTarget(chainDevice(t, 13)) },
	}
	for _, name := range Names() {
		zero, err := Run(context.Background(), name, targets[name](), Options{})
		if err != nil {
			t.Fatalf("%s zero Dist: %v", name, err)
		}
		def, err := Run(context.Background(), name, targets[name](), Options{Dist: DefaultDistinguisher()})
		if err != nil {
			t.Fatalf("%s default Dist: %v", name, err)
		}
		if !zero.Key.Equal(def.Key) || zero.Queries != def.Queries {
			t.Fatalf("%s: zero Dist gave key %s in %d queries, default gave %s in %d",
				name, zero.Key, zero.Queries, def.Key, def.Queries)
		}
	}
}
