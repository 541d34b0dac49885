// Command puf-campaign runs a registered experiment across a range of
// derived device seeds and prints aggregated campaign statistics (mean,
// stddev, min/max, and Wilson 95% intervals for binary outcomes such as
// key recovery).
//
// It has two execution modes sharing one report format:
//
//   - Local (default): the campaign runs in-process on a bounded worker
//     pool, exactly as before.
//   - Client (-addr): the spec is submitted to a running puf-campaignd
//     daemon, progress is streamed over server-sent events, and the
//     daemon's final result is printed. Because every task instance
//     derives its randomness purely from (base seed, task index), the
//     two modes print bit-identical aggregates for the same spec — even
//     when the daemon was killed and resumed mid-sweep.
//
// Usage:
//
//	puf-campaign -list
//	puf-campaign -task attack-success -seeds 64 -workers 8
//	puf-campaign -task seqpair-attack -seeds 100 -base 42 -json
//	puf-campaign -task groupbased-attack -timeout 10m
//	puf-campaign -addr http://localhost:8787 -task fig5 -seeds 256 -v
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/campaignd"
	_ "repro/internal/experiments" // registers every experiment task
)

func main() {
	task := flag.String("task", "", "registered task name (see -list)")
	list := flag.Bool("list", false, "list registered tasks and exit")
	seeds := flag.Int("seeds", 16, "number of derived seeds (task instances)")
	base := flag.Uint64("base", 1, "campaign base seed")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "campaign wall-time limit (0 = none)")
	addr := flag.String("addr", "", "campaignd base URL (e.g. http://localhost:8787); empty = run locally")
	shardSize := flag.Int("shard-size", 0, "seeds per checkpointed shard in client mode (0 = daemon default)")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON")
	verbose := flag.Bool("v", false, "print per-seed outcomes (local) or shard progress (client) as they complete")
	flag.Parse()

	if *list {
		fmt.Printf("%-20s %-10s %s\n", "TASK", "FIGURE", "DESCRIPTION")
		for _, t := range campaign.Tasks() {
			fig := t.Figure
			if fig == "" {
				fig = "-"
			}
			fmt.Printf("%-20s %-10s %s\n", t.Name, fig, t.Desc)
		}
		fmt.Printf("\nattack-backed tasks dispatch through the attack registry: %v\n", attack.Names())
		return
	}

	// Validate the whole spec up front — unknown task, non-positive
	// seed count — before spinning up a pool or
	// touching the network, with the same exit code the sibling CLIs
	// use for usage errors.
	if *task == "" {
		fmt.Fprintln(os.Stderr, "puf-campaign: -task is required (use -list to see tasks)")
		os.Exit(2)
	}
	if _, ok := campaign.Lookup(*task); !ok {
		fmt.Fprintf(os.Stderr, "puf-campaign: unknown task %q (use -list to see tasks)\n", *task)
		os.Exit(2)
	}
	if *seeds <= 0 {
		fmt.Fprintf(os.Stderr, "puf-campaign: -seeds must be > 0 (got %d)\n", *seeds)
		os.Exit(2)
	}

	// Ctrl-C cancels the campaign cleanly mid-run; -timeout adds the
	// same deadline control puf-attack exposes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	spec := campaignd.Spec{
		Task:      *task,
		BaseSeed:  *base,
		Seeds:     *seeds,
		Workers:   *workers,
		ShardSize: *shardSize,
	}

	var (
		res     *campaign.Result
		err     error
		start   = time.Now()
		backend = "local"
	)
	if *addr != "" {
		backend = *addr
		res, err = runRemote(ctx, *addr, spec, *verbose)
	} else {
		res, err = runLocal(ctx, spec, *verbose)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "puf-campaign:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "puf-campaign:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("campaign %s: %d seeds (base %d), %d workers, backend=%s, %s\n",
		res.Task, res.Seeds, res.BaseSeed, res.Workers, backend, elapsed.Round(time.Millisecond))
	printAggregates(res.Aggregates)
}

// runLocal executes the campaign in-process. With verbose set, per-seed
// outcomes stream through the engine's Progress callback as they
// complete — the same mechanism the daemon's SSE stream uses — instead
// of being re-derived from the final result.
func runLocal(ctx context.Context, spec campaignd.Spec, verbose bool) (*campaign.Result, error) {
	cspec := campaign.Spec{
		Task:     spec.Task,
		BaseSeed: spec.BaseSeed,
		Seeds:    spec.Seeds,
		Workers:  spec.Workers,
	}
	if verbose {
		cspec.Progress = func(ev campaign.ProgressEvent) {
			fmt.Printf("  [%3d/%3d] seed[%3d] = %#016x: %v\n",
				ev.Done, ev.Total, ev.Outcome.Index, ev.Outcome.Seed, ev.Outcome.Metrics)
		}
	}
	return campaign.Run(ctx, cspec)
}

// printAggregates renders the aggregate table both modes share.
func printAggregates(aggs []campaign.Aggregate) {
	fmt.Printf("%-26s %6s %12s %12s %12s %12s %s\n",
		"METRIC", "N", "MEAN", "STDDEV", "MIN", "MAX", "WILSON-95%")
	for _, a := range aggs {
		wilson := ""
		if a.Binary {
			wilson = fmt.Sprintf("[%.3f, %.3f] (%d/%d)", a.WilsonLo, a.WilsonHi, a.Successes, a.N)
		}
		fmt.Printf("%-26s %6d %12.4f %12.4f %12.4f %12.4f %s\n",
			a.Metric, a.N, a.Mean, a.Stddev, a.Min, a.Max, wilson)
	}
}
