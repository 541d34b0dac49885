// Sequential-pairing attack walkthrough (paper §VI-A, experiment E8):
// shows the attack's internals step by step — the hypothesis
// manipulation, the common error offset, the calibration, and the final
// complement decision — rather than just calling the packaged attack.
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
	dev, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
		EnrollReps:   20,
	}, rng.New(7), rng.New(8))
	if err != nil {
		log.Fatal(err)
	}
	helper := dev.ReadHelper()
	tcap := dev.Code().T()
	fmt.Printf("device: %d pairs, ECC corrects t=%d errors per %d-bit block\n",
		dev.NumPairs(), tcap, dev.Code().N())

	// --- Step 1: demonstrate the hypothesis manipulation in isolation.
	// Swapping the POSITIONS of pairs 0 and j injects 2 bit errors into
	// the regenerated response exactly when r_0 != r_j. Alone (2 <= t),
	// the ECC absorbs them — the observable stays quiet:
	manip := dev.ReadHelper()
	manip.Pairs.Pairs[0], manip.Pairs.Pairs[1] = manip.Pairs.Pairs[1], manip.Pairs.Pairs[0]
	if err := dev.WriteHelper(manip); err != nil {
		log.Fatal(err)
	}
	rate := attack.EstimateFailureRate(func() bool { return !dev.App() }, 20)
	fmt.Printf("swap alone: failure rate %.2f (invisible — within the ECC radius)\n", rate)

	// --- Step 2: add the common offset of Fig. 5 — t deterministic
	// errors via within-pair order swaps — so one more error tips the
	// decoder over the radius.
	manip = dev.ReadHelper()
	for pos := 2; pos < 2+tcap; pos++ {
		manip.Pairs.Pairs[pos] = manip.Pairs.Pairs[pos].Swapped()
	}
	manip.Pairs.Pairs[0], manip.Pairs.Pairs[1] = manip.Pairs.Pairs[1], manip.Pairs.Pairs[0]
	if err := dev.WriteHelper(manip); err != nil {
		log.Fatal(err)
	}
	rate = attack.EstimateFailureRate(func() bool { return !dev.App() }, 20)
	truth := dev.TrueKey()
	fmt.Printf("swap + offset: failure rate %.2f (bits actually %s)\n",
		rate, map[bool]string{true: "differ", false: "equal"}[truth.Get(0) != truth.Get(1)])

	// Restore the device before the full attack.
	if err := dev.WriteHelper(helper); err != nil {
		log.Fatal(err)
	}

	// --- Step 3: the packaged attack does this for every pair, then
	// resolves the final complement via the two candidate sets of ECC
	// helper data.
	res, err := attack.Run(context.Background(), "seqpair", attack.NewSeqPairTarget(dev),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		log.Fatal(err)
	}
	det := res.Details.(attack.SeqPairDetails)
	fmt.Printf("calibrated rates: offset %.2f vs offset+1 %.2f\n",
		det.Calibration.PNominal, det.Calibration.PElevated)
	agree := 0
	for j := 1; j < truth.Len(); j++ {
		if det.Relations[j] == (truth.Get(j) != truth.Get(0)) {
			agree++
		}
	}
	fmt.Printf("relations correct: %d/%d\n", agree, truth.Len()-1)
	fmt.Printf("full key recovered=%v (ambiguous=%v) in %d queries\n",
		res.Key.Equal(truth), res.Ambiguous, res.Queries)
}
