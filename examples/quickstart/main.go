// Quickstart: manufacture a simulated RO array, enroll a sequential-
// pairing (LISA) key generator on it, reconstruct the key honestly, and
// then mount the paper's §VI-A helper-data manipulation attack — all in
// one file.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
)

func main() {
	// 1. Manufacture and enroll. Two RNG streams keep manufacturing
	//    variability and runtime noise independently reproducible.
	params := device.SeqPairParams{
		Rows: 8, Cols: 16, // 128 ring oscillators
		ThresholdMHz: 0.8, // LISA's ∆fth
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
		EnrollReps:   20,
	}
	dev, err := device.EnrollSeqPairReuse(nil, params, rng.New(42), rng.New(43))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolled a LISA device: %d pairs, ECC %s\n", dev.NumPairs(), dev.Code())

	// 2. Honest use: the application reconstructs the key from fresh
	//    noisy measurements, corrected via the public helper data.
	ok := 0
	for i := 0; i < 10; i++ {
		if dev.App() {
			ok++
		}
	}
	fmt.Printf("honest reconstructions: %d/10 succeeded\n", ok)

	// 3. The attack: manipulate public helper data, watch failure rates,
	//    recover the key bit relations and finally the key itself.
	res, err := attack.Run(context.Background(), "seqpair", attack.NewSeqPairTarget(dev),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		log.Fatal(err)
	}
	truth := dev.TrueKey()
	fmt.Printf("attack recovered: %s\n", res.Key)
	fmt.Printf("true key        : %s\n", truth)
	fmt.Printf("exact recovery=%v with %d oracle queries (%.1f per key bit)\n",
		res.Key.Equal(truth), res.Queries, float64(res.Queries)/float64(truth.Len()))
}
