// Entropy-distiller attacks (paper §VI-D / Figs. 6b and 6c, experiments
// E6 and E7): attacks the DAC 2013 regression-based distiller composed
// with the two classic pairing schemes on the 4x10 array — 1-out-of-5
// masking (two hypotheses per isolated bit) and the overlapping neighbor
// chain (2^4 hypotheses per column boundary, as in the paper).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/rng"
)

func main() {
	code := ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})

	// --- Fig. 6b: distiller + 1-out-of-k masking -----------------------
	masked, err := device.EnrollDistillerPairReuse(nil, device.DistillerPairParams{
		Rows: 4, Cols: 10,
		Degree: 2,
		Mode:   device.MaskedChain,
		K:      5, // the paper's k = 5
		Code:   code, EnrollReps: 25,
	}, rng.New(80), rng.New(81))
	if err != nil {
		log.Fatal(err)
	}
	truthM := masked.TrueKey()
	fmt.Printf("Fig. 6b device: distiller + 1-out-of-5 masking, key %d bits\n", truthM.Len())
	resM, err := attack.Run(context.Background(), "masking", attack.NewDistillerTarget(masked),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recovered all %d base-pair bits; key %s (true %s)\n",
		len(resM.Details.(attack.MaskingDetails).BaseBits), resM.Key, truthM)
	fmt.Printf("  exact=%v in %d oracle queries\n\n", resM.Key.Equal(truthM), resM.Queries)

	// --- Fig. 6c: distiller + overlapping neighbor chain ---------------
	chain, err := device.EnrollDistillerPairReuse(nil, device.DistillerPairParams{
		Rows: 4, Cols: 10,
		Degree: 2,
		Mode:   device.OverlappingChain,
		Code:   code, EnrollReps: 25,
	}, rng.New(90), rng.New(91))
	if err != nil {
		log.Fatal(err)
	}
	truthC := chain.TrueKey()
	fmt.Printf("Fig. 6c device: distiller + overlapping chain, key %d bits\n", truthC.Len())
	resC, err := attack.Run(context.Background(), "chain", attack.NewDistillerTarget(chain),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  hypothesis sets grew to 2^b = %d (the paper's four random bits per valley)\n",
		resC.Details.(attack.ChainDetails).MaxHypotheses)
	fmt.Printf("  recovered key %s\n  true key      %s\n", resC.Key, truthC)
	fmt.Printf("  exact=%v in %d oracle queries\n", resC.Key.Equal(truthC), resC.Queries)
}
