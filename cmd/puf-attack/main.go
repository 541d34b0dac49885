// Command puf-attack runs any registered helper-data manipulation
// attack end to end against a freshly enrolled simulated device and
// reports the unified attack.Report: recovery outcome, oracle cost,
// and per-phase breakdown.
//
// The attack is resolved through the attack registry, so a newly
// registered fifth attack shows up here with no CLI changes. An
// unknown -strategy is a usage error (exit 2).
//
// Usage:
//
//	puf-attack -list
//	puf-attack -attack seqpair [-seed N] [-strategy sequential|fixed]
//	puf-attack -attack groupbased -budget 200000 -timeout 2m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/tempco"
)

func main() {
	name := flag.String("attack", "seqpair", "registered attack name (see -list)")
	list := flag.Bool("list", false, "list registered attacks and exit")
	seed := flag.Uint64("seed", 1, "device manufacturing seed")
	strategy := flag.String("strategy", "sequential", "distinguisher: sequential or fixed")
	budget := flag.Int("budget", 0, "oracle query budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "attack wall-time limit (0 = none)")
	verbose := flag.Bool("v", false, "print per-phase progress lines")
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %s\n", "ATTACK", "DESCRIPTION")
		for _, a := range attack.Attacks() {
			fmt.Printf("%-12s %s\n", a.Name(), a.Description())
		}
		return
	}
	dist, err := distinguisher(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "puf-attack:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, *name, *seed, attack.Options{
		Dist:        dist,
		QueryBudget: *budget,
	}, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "puf-attack:", err)
		os.Exit(1)
	}
}

// distinguisher maps a -strategy value to its distinguisher; any value
// but "sequential" and "fixed" is an error.
func distinguisher(strategy string) (attack.Distinguisher, error) {
	switch strategy {
	case "sequential":
		return attack.DefaultDistinguisher(), nil
	case "fixed":
		return attack.Distinguisher{Strategy: attack.FixedSample, Queries: 10}, nil
	}
	return attack.Distinguisher{}, fmt.Errorf("unknown -strategy %q (want sequential or fixed)", strategy)
}

func run(ctx context.Context, name string, seed uint64, opts attack.Options, verbose bool) error {
	target, truth, desc, err := enroll(name, seed)
	if err != nil {
		return err
	}
	fmt.Println(desc)

	if verbose {
		last := ""
		opts.Progress = func(p attack.Progress) {
			if p.Phase != last {
				fmt.Printf("  phase %s...\n", p.Phase)
				last = p.Phase
			}
		}
	}

	rep, err := attack.Run(ctx, name, target, opts)
	if err != nil {
		return err
	}
	printReport(rep, truth)
	return nil
}

// enroll builds the standard device population entry for one attack and
// returns its oracle, the enrolled key when the attack recovers one
// (empty for relation-only attacks), and a banner line.
func enroll(name string, seed uint64) (attack.Target, bitvec.Vector, string, error) {
	srcMfg, srcRun := rng.New(seed), rng.New(seed+1)
	switch name {
	case "seqpair":
		d, err := device.EnrollSeqPair(device.SeqPairParams{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.8,
			Policy:       pairing.RandomizedStorage,
			Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
			EnrollReps:   20,
		}, srcMfg, srcRun)
		if err != nil {
			return nil, bitvec.Vector{}, "", err
		}
		desc := fmt.Sprintf("enrolled LISA device: %d pairs, code %s", d.NumPairs(), d.Code())
		return attack.NewSeqPairTarget(d), d.TrueKey(), desc, nil
	case "tempco":
		d, err := device.EnrollTempCo(tempco.Params{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.6,
			TminC:        -20, TmaxC: 80,
			Policy:     tempco.RandomSelection,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
			EnrollReps: 25,
		}, srcMfg, srcRun)
		if err != nil {
			return nil, bitvec.Vector{}, "", err
		}
		good, bad, coop := tempco.CountClasses(d.ReadHelper())
		desc := fmt.Sprintf("enrolled temperature-aware device: %d good / %d bad / %d cooperating pairs", good, bad, coop)
		// Relation-only attack: no single recovered key to score.
		return attack.NewTempCoTarget(d), bitvec.Vector{}, desc, nil
	case "groupbased":
		d, err := device.EnrollGroupBased(groupbased.Params{
			Rows: 4, Cols: 10,
			Degree:       2,
			ThresholdMHz: 0.5,
			MaxGroupSize: 6,
			Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps:   25,
		}, srcMfg, srcRun)
		if err != nil {
			return nil, bitvec.Vector{}, "", err
		}
		desc := fmt.Sprintf("enrolled group-based device (Fig. 6a array): key %d bits", d.TrueKey().Len())
		return attack.NewGroupBasedTarget(d), d.TrueKey(), desc, nil
	case "masking", "chain":
		mode := device.MaskedChain
		if name == "chain" {
			mode = device.OverlappingChain
		}
		d, err := device.EnrollDistillerPair(device.DistillerPairParams{
			Rows: 4, Cols: 10,
			Degree: 2, Mode: mode, K: 5,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps: 25,
		}, srcMfg, srcRun)
		if err != nil {
			return nil, bitvec.Vector{}, "", err
		}
		desc := fmt.Sprintf("enrolled distiller device (%v): key %d bits", mode, d.TrueKey().Len())
		return attack.NewDistillerTarget(d), d.TrueKey(), desc, nil
	}
	return nil, bitvec.Vector{}, "", fmt.Errorf("no standard device for attack %q (registry has %v)", name, attack.Names())
}

func printReport(rep attack.Report, truth bitvec.Vector) {
	if rep.Key.Len() > 0 {
		fmt.Printf("recovered key : %s\n", rep.Key)
	}
	if truth.Len() > 0 {
		fmt.Printf("true key      : %s\n", truth)
		fmt.Printf("exact=%v ambiguous=%v\n", rep.Key.Equal(truth), rep.Ambiguous)
	}
	switch det := rep.Details.(type) {
	case attack.SeqPairDetails:
		fmt.Printf("calibration   : p(offset)=%.3f p(offset+1)=%.3f over %d queries\n",
			det.Calibration.PNominal, det.Calibration.PElevated, det.Calibration.Queries)
	case attack.TempCoDetails:
		fmt.Printf("reference pair: %d\n", det.RefIdx)
		fmt.Printf("relations     : %d recovered (skipped %d unstable at ambient)\n", len(det.XorWithRef), len(det.Skipped))
		fmt.Printf("mask bits     : %d absolute\n", len(det.MaskBits))
	case attack.GroupBasedDetails:
		fmt.Printf("groups        : %d/%d resolved\n", det.Resolved, len(det.Orders))
	case attack.MaskingDetails:
		fmt.Printf("base bits     : %d recovered\n", len(det.BaseBits))
	case attack.ChainDetails:
		fmt.Printf("hypotheses    : max %d simultaneous\n", det.MaxHypotheses)
	}
	fmt.Printf("oracle queries: %d in %s\n", rep.Queries, rep.Elapsed.Round(time.Millisecond))
	for _, ph := range rep.Phases {
		fmt.Printf("  %-12s %6d queries  %s\n", ph.Name, ph.Queries, ph.Elapsed.Round(time.Millisecond))
	}
}
