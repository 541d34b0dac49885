package experiments

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/rng"
	"repro/internal/transcript"
)

// TestPooledCampaignMatchesFreshAttacks pins the end-to-end device-pool
// determinism contract at the experiments layer: a campaign run (which
// installs per-worker device pools, so every seed after a worker's
// first reuses a warm device carcass) reports exactly the metrics of a
// fresh, unpooled transcript.Run per seed.
func TestPooledCampaignMatchesFreshAttacks(t *testing.T) {
	ctx := context.Background()
	const base, seeds = 5, 4
	res, err := campaign.Run(ctx, campaign.Spec{
		Task: "masking-attack", BaseSeed: base, Seeds: seeds, Workers: 3,
		Options: campaign.Options{Noise: "counter"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outcomes {
		seed := rng.StreamSeed(base, uint64(i))
		fresh, err := transcript.Run(ctx, transcript.Spec{Attack: "masking", Seed: seed, Noise: "counter"})
		if err != nil {
			t.Fatalf("seed %d fresh: %v", seed, err)
		}
		if got, want := out.Metrics["recovered"], campaign.Bool(fresh.Recovered); got != want {
			t.Fatalf("seed %d: pooled recovered=%v fresh=%v", seed, got, want)
		}
		if got, want := out.Metrics["oracle-queries"], float64(fresh.Queries); got != want {
			t.Fatalf("seed %d: pooled queries=%v fresh=%v", seed, got, want)
		}
		if got, want := out.Metrics["key-bits"], float64(fresh.EnrolledKeyBits); got != want {
			t.Fatalf("seed %d: pooled key-bits=%v fresh=%v", seed, got, want)
		}
	}
}
