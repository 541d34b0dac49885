// Command puf-attack runs any registered helper-data manipulation
// attack end to end against the attack's canonical simulated device
// (transcript.Enroll, the device its goldens attack) and reports the
// unified attack.Report: recovery outcome, oracle cost, and per-phase
// breakdown.
//
// The attack is resolved through the attack registry, so a newly
// registered attack shows up here with no CLI changes once
// transcript.Enroll has a device for it. An unknown -strategy is a
// usage error (exit 2).
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
	"io"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/transcript"
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

	if err := run(ctx, os.Stdout, *name, *seed, attack.Options{
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

// run enrolls the canonical device for the named attack (the one its
// goldens attack), runs the attack under opts and writes the report to
// w.
func run(ctx context.Context, w io.Writer, name string, seed uint64, opts attack.Options, verbose bool) error {
	target, truth, err := transcript.Enroll(transcript.Spec{Attack: name, Seed: seed, Expurgate: name == "seqpair"}, nil)
	if err != nil {
		return err
	}
	spec := target.Spec()
	geometry := ""
	if spec.Rows > 0 {
		geometry = fmt.Sprintf(" %dx%d array,", spec.Rows, spec.Cols)
	}
	fmt.Fprintf(w, "enrolled %s device:%s code %s, key %d bits\n", spec.Construction, geometry, spec.Code, truth.Len())

	if verbose {
		last := ""
		opts.Progress = func(p attack.Progress) {
			if p.Phase != last {
				fmt.Fprintf(w, "  phase %s...\n", p.Phase)
				last = p.Phase
			}
		}
	}

	rep, err := attack.Run(ctx, name, target, opts)
	if err != nil {
		return err
	}
	printReport(w, rep, truth)
	return nil
}

// printReport writes the report; the true key and the exact-recovery
// verdict appear only when the attack recovers a key (tempco recovers
// relations).
func printReport(w io.Writer, rep attack.Report, truth bitvec.Vector) {
	if rep.Key.Len() > 0 {
		fmt.Fprintf(w, "recovered key : %s\n", rep.Key)
		fmt.Fprintf(w, "true key      : %s\n", truth)
		fmt.Fprintf(w, "exact=%v ambiguous=%v\n", rep.Key.Equal(truth), rep.Ambiguous)
	}
	switch det := rep.Details.(type) {
	case attack.SeqPairDetails:
		fmt.Fprintf(w, "calibration   : p(offset)=%.3f p(offset+1)=%.3f over %d queries\n",
			det.Calibration.PNominal, det.Calibration.PElevated, det.Calibration.Queries)
	case attack.TempCoDetails:
		fmt.Fprintf(w, "reference pair: %d\n", det.RefIdx)
		fmt.Fprintf(w, "relations     : %d recovered (skipped %d unstable at ambient)\n", len(det.XorWithRef), len(det.Skipped))
		fmt.Fprintf(w, "mask bits     : %d absolute\n", len(det.MaskBits))
	case attack.GroupBasedDetails:
		fmt.Fprintf(w, "groups        : %d/%d resolved\n", det.Resolved, len(det.Orders))
	case attack.MaskingDetails:
		fmt.Fprintf(w, "base bits     : %d recovered\n", len(det.BaseBits))
	case attack.ChainDetails:
		fmt.Fprintf(w, "hypotheses    : max %d simultaneous\n", det.MaxHypotheses)
	}
	fmt.Fprintf(w, "oracle queries: %d in %s\n", rep.Queries, rep.Elapsed.Round(time.Millisecond))
	for _, ph := range rep.Phases {
		fmt.Fprintf(w, "  %-12s %6d queries  %s\n", ph.Name, ph.Queries, ph.Elapsed.Round(time.Millisecond))
	}
}
