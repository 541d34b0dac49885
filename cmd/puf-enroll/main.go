// Command puf-enroll manufactures and enrolls a simulated device of the
// selected key-generation construction through the device layer, and
// dumps its public helper NVM content (the attack surface) together
// with key statistics.
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

	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/perm"
	"repro/internal/rng"
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
	d, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   20,
	}, rng.New(seed), rng.New(seed+1))
	if err != nil {
		return err
	}
	h := d.ReadHelper().Pairs
	fmt.Printf("sequential pairing (LISA) on 8x16 array\n")
	fmt.Printf("pairs selected : %d (max %d)\n", len(h.Pairs), d.Array().N()/2)
	fmt.Printf("response       : %s\n", d.TrueKey())
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
	d, err := device.EnrollTempCoReuse(nil, p, rng.New(seed), rng.New(seed+1))
	if err != nil {
		return err
	}
	h, key := d.ReadHelper(), d.TrueKey()
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
	blob := h.Append(nil)
	fmt.Printf("helper NVM     : %d bytes\n", len(blob))
	if dumpHex {
		fmt.Println(hex.EncodeToString(blob))
	}
	return nil
}

func enrollGroupBased(seed uint64, dumpHex bool) error {
	d, err := device.EnrollGroupBasedReuse(nil, groupbased.Params{
		Rows: 8, Cols: 16,
		Degree:       2,
		ThresholdMHz: 0.5,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps:   15,
	}, rng.New(seed), rng.New(seed+1))
	if err != nil {
		return err
	}
	h, key := d.ReadHelper(), d.TrueKey()
	fmt.Printf("group-based RO PUF on 8x16 array (Fig. 4 pipeline)\n")
	fmt.Printf("groups         : %d, entropy %.1f bits (of log2(128!) = %.1f)\n",
		h.Grouping.NumGroups(), groupbased.Entropy(&h.Grouping), perm.Log2Factorial(d.Array().N()))
	fmt.Printf("Kendall stream : %d bits; packed key: %d bits\n",
		groupbased.StreamLen(&h.Grouping), key.Len())
	fmt.Printf("key            : %s\n", key)
	poly, groups := h.Poly.Append(nil), h.Grouping.Append(nil)
	fmt.Printf("helper NVM     : poly %d B + groups %d B + offset %d bits\n",
		len(poly), len(groups), h.Offset.Len())
	if dumpHex {
		fmt.Println("poly   :", hex.EncodeToString(poly))
		fmt.Println("groups :", hex.EncodeToString(groups))
		fmt.Println("offset :", hex.EncodeToString(h.Offset.Bytes()))
	}
	return nil
}
