// Group-based RO PUF attack (paper §VI-C / Fig. 6a, experiments E5 and
// E10): enrolls the full Fig. 4 pipeline — entropy distiller, grouping
// algorithm, Kendall coding, ECC, entropy packing — on the paper's 4x10
// array and mounts the full key recovery by injecting steep polynomials
// and repartitioning the groups.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/rng"
)

func main() {
	params := groupbased.Params{
		Rows: 4, Cols: 10, // the Fig. 6a array
		Degree:       2,   // distiller polynomial degree (DAC 2013: p = 2)
		ThresholdMHz: 0.5, // grouping threshold ∆fth
		MaxGroupSize: 6,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   25,
	}
	dev, err := device.EnrollGroupBasedReuse(nil, params, rng.New(70), rng.New(71))
	if err != nil {
		log.Fatal(err)
	}

	h := dev.ReadHelper()
	fmt.Printf("enrolled group-based RO PUF (Fig. 4 pipeline) on a 4x10 array\n")
	fmt.Printf("groups: %d, response entropy sum log2(|Gj|!) = %.1f bits\n",
		h.Grouping.NumGroups(), groupbased.Entropy(&h.Grouping))
	for id, members := range h.Grouping.Members() {
		fmt.Printf("  G%-2d: %v\n", id+1, members)
	}
	truth := dev.TrueKey()
	fmt.Printf("enrolled key: %s (%d bits)\n\n", truth, truth.Len())

	// The attack iterates over every pair of oscillators sharing an
	// original group: a steep plane through both ties their pattern
	// values (the Fig. 6a quadratic generalized), the repartitioned
	// groups pin every other bit, and two candidate sets of ECC helper
	// data decide the remaining one.
	res, err := attack.Run(context.Background(), "groupbased", attack.NewGroupBasedTarget(dev),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		log.Fatal(err)
	}
	det := res.Details.(attack.GroupBasedDetails)
	fmt.Printf("attack resolved %d/%d group orders:\n", det.Resolved, len(det.Orders))
	for g, order := range det.Orders {
		if len(order) > 1 {
			fmt.Printf("  G%-2d frequency order (labels): %v\n", g+1, order)
		}
	}
	fmt.Printf("recovered key: %s\n", res.Key)
	fmt.Printf("true key     : %s\n", truth)
	fmt.Printf("FULL KEY RECOVERY: %v, using %d oracle queries\n",
		res.Key.Equal(truth), res.Queries)
}
