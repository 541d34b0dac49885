package transcript

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/device"
)

// TestRunWithPoolMatchesFresh pins the device-pool determinism
// contract at the transcript level: running a sequence of different
// seeds per attack through one shared Cache — so every enrollment
// after the first adopts the previous seed's device carcass with warm
// scratch — produces transcripts identical to fresh Run calls, field
// for field. The second seed names the model as "" and the first as
// "counter": both spellings must share one pooled slot.
func TestRunWithPoolMatchesFresh(t *testing.T) {
	ctx := context.Background()
	pool := campaign.NewPool()
	for _, attackName := range Attacks() {
		for i, seed := range goldenSeeds[attackName][:2] {
			spec := Spec{
				Attack:    attackName,
				Seed:      seed,
				Noise:     [2]string{"counter", ""}[i],
				Expurgate: attackName == "seqpair",
			}
			fresh, err := Run(ctx, spec)
			if err != nil {
				t.Fatalf("%s seed %d fresh: %v", attackName, seed, err)
			}
			pooled, err := RunWith(ctx, spec, pool)
			if err != nil {
				t.Fatalf("%s seed %d pooled: %v", attackName, seed, err)
			}
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatalf("%s seed %d: pooled transcript diverges from fresh:\nfresh:  %+v\npooled: %+v",
					attackName, seed, fresh, pooled)
			}
		}
	}
	// One slot per attack: the fingerprints partition.
	if want := len(Attacks()); pool.Len() != want {
		t.Fatalf("pool holds %d slots, want %d", pool.Len(), want)
	}
}

// TestRunWithPoolReusesDevice is the steady-state fence at this layer:
// consecutive task executions under one Cache adopt the SAME device
// object (pointer identity), and every run, pooled or not, decodes
// under the same shared ECC code instance: no new device per seed and
// no rebuilt code tables.
func TestRunWithPoolReusesDevice(t *testing.T) {
	ctx := context.Background()
	pool := campaign.NewPool()
	spec := Spec{Attack: "seqpair", Seed: 5, Noise: "counter", Expurgate: true}
	if _, err := RunWith(ctx, spec, pool); err != nil {
		t.Fatal(err)
	}
	ep := pool.Get("transcript:seqpair:exp", func() any { t.Fatal("slot missing"); return nil }).(*enrollPool)
	dev0, _ := ep.dev.(*device.SeqPairDevice)
	if dev0 == nil {
		t.Fatal("pooled slot not populated")
	}
	code0 := dev0.Code()
	spec.Seed = 8
	if _, err := RunWith(ctx, spec, pool); err != nil {
		t.Fatal(err)
	}
	if ep.dev != any(dev0) {
		t.Fatal("second seed enrolled a new device instead of adopting the pooled one")
	}
	if dev0.Code() != code0 {
		t.Fatal("second seed rebuilt the ECC code tables")
	}
	other := campaign.NewPool()
	if _, err := RunWith(ctx, spec, other); err != nil {
		t.Fatal(err)
	}
	dev1 := other.Get("transcript:seqpair:exp", func() any { return nil }).(*enrollPool).dev.(*device.SeqPairDevice)
	if dev1 == dev0 || dev1.Code() != code0 {
		t.Fatal("an independent enrollment built its own ECC code instead of the shared one")
	}
}
