package transcript

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
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
// object (pointer identity) and the same ECC code tables — no new
// device per seed.
func TestRunWithPoolReusesDevice(t *testing.T) {
	ctx := context.Background()
	pool := campaign.NewPool()
	spec := Spec{Attack: "seqpair", Seed: 5, Noise: "counter", Expurgate: true}
	if _, err := RunWith(ctx, spec, pool); err != nil {
		t.Fatal(err)
	}
	ep := pool.Get("transcript:seqpair:exp", func() any { t.Fatal("slot missing"); return nil }).(*enrollPool)
	dev0, code0 := ep.dev, ep.code
	if dev0 == nil || code0 == nil {
		t.Fatal("pooled slot not populated")
	}
	spec.Seed = 8
	if _, err := RunWith(ctx, spec, pool); err != nil {
		t.Fatal(err)
	}
	if ep.dev != dev0 {
		t.Fatal("second seed enrolled a new device instead of adopting the pooled one")
	}
	if ep.code != code0 {
		t.Fatal("second seed rebuilt the ECC code tables")
	}
}
