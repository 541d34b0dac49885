// Temperature-aware cooperative RO PUF attack (paper §VI-B, experiment
// E9): enrolls a device over the industrial temperature range, shows the
// good/bad/cooperating classification of Fig. 3, and recovers the
// cooperating-pair bit relations plus the absolute values of the good
// pairs used as masks.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/rng"
	"repro/internal/tempco"
)

func main() {
	params := tempco.Params{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.6,
		TminC:        -20, TmaxC: 80, // the user-defined operating range
		Policy:     tempco.RandomSelection,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps: 25,
	}
	dev, err := device.EnrollTempCoReuse(nil, params, rng.New(50), rng.New(51))
	if err != nil {
		log.Fatal(err)
	}
	h := dev.ReadHelper()
	good, bad, coop := tempco.CountClasses(h)
	fmt.Printf("Fig. 3 classification over [%v, %v] C at ∆fth = %v MHz:\n",
		params.TminC, params.TmaxC, params.ThresholdMHz)
	fmt.Printf("  %d good pairs (one reliable bit each)\n", good)
	fmt.Printf("  %d bad pairs (discarded)\n", bad)
	fmt.Printf("  %d cooperating pairs (helper-assisted inside their crossover interval)\n\n", coop)

	for i, info := range h.Pairs {
		if info.Class == tempco.Cooperating {
			fmt.Printf("  pair %3d cooperates: unstable in [%5.1f, %5.1f] C, helped by pair %d masked by pair %d\n",
				i, info.Tl, info.Th, info.HelpIdx, info.MaskIdx)
		}
	}

	res, err := attack.Run(context.Background(), "tempco", attack.NewTempCoTarget(dev),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		log.Fatal(err)
	}
	det := res.Details.(attack.TempCoDetails)
	fmt.Printf("\nattack at ambient %.0f C:\n", dev.Environment().TempC)
	fmt.Printf("  calibrated failure rates: %.2f (offset) vs %.2f (offset+1)\n",
		det.Calibration.PNominal, det.Calibration.PElevated)
	fmt.Printf("  recovered %d cooperating-pair relations relative to pair %d\n",
		len(det.XorWithRef), det.RefIdx)
	for x, differs := range det.XorWithRef {
		rel := "equals"
		if differs {
			rel = "differs from"
		}
		fmt.Printf("    bit of pair %3d %s bit of pair %d\n", x, rel, det.RefIdx)
	}
	fmt.Printf("  ABSOLUTELY recovered good-pair (mask) bits: %d\n", len(det.MaskBits))
	for g, bit := range det.MaskBits {
		fmt.Printf("    good pair %3d carries bit %d\n", g, b2i(bit))
	}
	fmt.Printf("  total oracle queries: %d (skipped %d pairs unstable at ambient)\n",
		res.Queries, len(det.Skipped))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
