// Command puf-enroll manufactures a simulated RO array, enrolls the
// selected key-generation construction on it, and dumps the public
// helper NVM content (the attack surface) together with key statistics.
//
// Usage:
//
//	puf-enroll -construction seqpair|tempco|groupbased [-seed N] [-hex]
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

func main() {
	construction := flag.String("construction", "groupbased", "construction: seqpair, tempco, groupbased")
	seed := flag.Uint64("seed", 1, "manufacturing seed")
	dumpHex := flag.Bool("hex", false, "dump helper NVM bytes as hex")
	flag.Parse()

	var err error
	switch *construction {
	case "seqpair":
		err = enrollSeqPair(*seed, *dumpHex)
	case "tempco":
		err = enrollTempCo(*seed, *dumpHex)
	case "groupbased":
		err = enrollGroupBased(*seed, *dumpHex)
	default:
		err = fmt.Errorf("unknown construction %q", *construction)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func enrollSeqPair(seed uint64, dumpHex bool) error {
	arr := silicon.NewArray(silicon.DefaultConfig(8, 16), rng.New(seed))
	src := rng.New(seed + 1)
	f := arr.MeasureAveraged(arr.Config().NominalEnv(), arr.NewNoise(src), 20)
	h := pairing.EnrollSeqPair(f, 0.8, pairing.RandomizedStorage, src)
	resp := pairing.Responses(f, h.Pairs)
	fmt.Printf("sequential pairing (LISA) on 8x16 array\n")
	fmt.Printf("pairs selected : %d (max %d)\n", len(h.Pairs), arr.N()/2)
	fmt.Printf("response       : %s\n", resp)
	blob := h.Append(nil)
	fmt.Printf("helper NVM     : %d bytes (pair list)\n", len(blob))
	if dumpHex {
		fmt.Println(hex.EncodeToString(blob))
	}
	return nil
}

func enrollTempCo(seed uint64, dumpHex bool) error {
	p := tempco.Params{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.6,
		TminC:        -20, TmaxC: 80,
		Policy:     tempco.RandomSelection,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps: 25,
	}
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.TempCoefSigmaMHzPerC = 0.03
	arr := silicon.NewArray(cfg, rng.New(seed))
	src := rng.New(seed + 1)
	h, key, err := tempco.Enroll(arr, p, src, arr.NewNoise(src))
	if err != nil {
		return err
	}
	good, bad, coop := tempco.CountClasses(h)
	fmt.Printf("temperature-aware cooperative RO PUF on 8x16 array, range [%v, %v] C\n", p.TminC, p.TmaxC)
	fmt.Printf("pairs          : %d good / %d bad / %d cooperating\n", good, bad, coop)
	fmt.Printf("key            : %s (%d bits)\n", key, key.Len())
	for i, info := range h.Pairs {
		if info.Class == tempco.Cooperating {
			fmt.Printf("  coop pair %3d: interval [%6.1f, %6.1f] C, help=%d mask=%d\n",
				i, info.Tl, info.Th, info.HelpIdx, info.MaskIdx)
		}
	}
	blob := h.Marshal()
	fmt.Printf("helper NVM     : %d bytes\n", len(blob))
	if dumpHex {
		fmt.Println(hex.EncodeToString(blob))
	}
	return nil
}

func enrollGroupBased(seed uint64, dumpHex bool) error {
	p := groupbased.Params{
		Rows: 8, Cols: 16,
		Degree:       2,
		ThresholdMHz: 0.5,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps:   15,
	}
	arr := silicon.NewArray(silicon.DefaultConfig(p.Rows, p.Cols), rng.New(seed))
	src := rng.New(seed + 1)
	h, key, err := groupbased.Enroll(arr, p, src, arr.NewNoise(src))
	if err != nil {
		return err
	}
	fmt.Printf("group-based RO PUF on 8x16 array (Fig. 4 pipeline)\n")
	fmt.Printf("groups         : %d, entropy %.1f bits (of log2(128!) = %.1f)\n",
		h.Grouping.NumGroups(), groupbased.Entropy(&h.Grouping), perm.Log2Factorial(arr.N()))
	fmt.Printf("Kendall stream : %d bits; packed key: %d bits\n",
		groupbased.StreamLen(&h.Grouping), key.Len())
	fmt.Printf("key            : %s\n", key)
	fmt.Printf("helper NVM     : poly %d B + groups %d B + offset %d bits\n",
		len(h.Poly.Marshal()), len(h.Grouping.Marshal()), h.Offset.Len())
	if dumpHex {
		fmt.Println("poly   :", hex.EncodeToString(h.Poly.Marshal()))
		fmt.Println("groups :", hex.EncodeToString(h.Grouping.Marshal()))
		fmt.Println("offset :", hex.EncodeToString(h.Offset.Bytes()))
	}
	return nil
}
