// Command puf-analyze computes the standard PUF quality metrics of the
// paper's Sections II-III over a population of simulated devices:
// reliability (intra-distance), uniqueness (inter-distance), bias and
// entropy accounting.
//
// Usage:
//
//	puf-analyze [-devices N] [-regens M] [-seed S] [-rows R] [-cols C]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bitvec"
	"repro/internal/metrics"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

func main() {
	devices := flag.Int("devices", 20, "population size")
	regens := flag.Int("regens", 20, "regenerations per device for reliability")
	seed := flag.Uint64("seed", 1, "master seed")
	rows := flag.Int("rows", 8, "array rows")
	cols := flag.Int("cols", 16, "array columns")
	flag.Parse()

	if *devices < 2 || *regens < 1 {
		fmt.Fprintln(os.Stderr, "need at least 2 devices and 1 regeneration")
		os.Exit(2)
	}

	pairs := pairing.ChainPairs(*rows, *cols, false)
	var references []bitvec.Vector
	var intraSum float64
	for dev := 0; dev < *devices; dev++ {
		s := *seed + uint64(dev)*13
		arr := silicon.NewArray(silicon.DefaultConfig(*rows, *cols), rng.New(s))
		nm := arr.NewNoise(rng.New(s + 1))
		env := arr.Config().NominalEnv()
		f := make([]float64, arr.N())
		ref := pairing.Responses(arr.MeasureAveraged(env, nm, 15), pairs)
		references = append(references, ref)
		var regenerations []bitvec.Vector
		for r := 0; r < *regens; r++ {
			regenerations = append(regenerations, pairing.Responses(arr.MeasureIntoWith(f, env, nm), pairs))
		}
		intra, err := metrics.IntraDistance(ref, regenerations)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		intraSum += intra
	}
	inter, err := metrics.InterDistance(references)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bias := metrics.Bias(references)

	n := *rows * *cols
	fmt.Printf("population          : %d devices, %dx%d arrays, %d chain-pair bits\n", *devices, *rows, *cols, len(pairs))
	fmt.Printf("reliability (intra) : %.4f mean fractional HD (0 = ideal)\n", intraSum/float64(*devices))
	fmt.Printf("uniqueness  (inter) : %.4f mean fractional HD (0.5 = ideal)\n", inter)
	fmt.Printf("bias                : %.4f fraction of ones (0.5 = ideal)\n", bias)
	fmt.Printf("Shannon entropy/bit : %.4f\n", metrics.ShannonEntropyPerBit(bias))
	fmt.Printf("min-entropy/bit     : %.4f\n", metrics.MinEntropyPerBit(bias))
	fmt.Printf("total order entropy : log2(%d!) = %.1f bits (paper §II)\n", n, metrics.TotalOrderEntropyBits(n))
}
