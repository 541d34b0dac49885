// Command perfbench is the repository benchmark. It drives the attack
// stack, device enrollment and the campaign daemon through their public
// Go and HTTP surfaces, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON object
// on the last line of standard output.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module against the checkout's sources:
//
//	bash perfbench/run.sh --workload attack-mix --seed 7 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, metrics and the traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workload is one benchmark traffic mix over a fixed request list that
// was generated from the workload seed.
type workload interface {
	// size is the number of requests in one pass over the list.
	size() int
	// listDigest fingerprints the generated request list.
	listDigest() string
	// reference computes the expected output digest of a sample of
	// requests through an independent path (untimed).
	reference(ctx context.Context) (map[int]string, error)
	// start discards any previous system state and performs a cold
	// start: fresh pools, code tables and devices (or a fresh daemon
	// over the generated state directory). It and the warm-up requests
	// that follow it are what setup_s times.
	start(ctx context.Context) error
	// warmup is the number of warm-up requests, the first of the list,
	// that complete a cold start.
	warmup() int
	// request runs request i against the started system.
	request(ctx context.Context, i int) (outcome, error)
	// traced is request with spans recorded into tr.
	traced(ctx context.Context, i int, tr *tracer) (outcome, error)
	// layers adds the workload's own per-layer metrics after the
	// untraced passes (untraced) and traced passes (tr) of a --trace 1
	// run.
	layers(ctx context.Context, untraced *passResult, tr *tracer, m metrics) error
	// close releases the started system.
	close() error
}

// outcome is what one request produced. Everything but digest feeds
// the end-to-end metrics; all of it must repeat exactly across passes.
type outcome struct {
	ops       int    // attacks run (attack-mix, daemon-shards) or devices enrolled (enroll-only)
	queries   int    // oracle queries made by those ops
	recovered int    // ops whose key was fully recovered (or reproduced at power-up)
	digest    string // SHA-256 of the request's canonical output
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: attack-mix, enroll-only or daemon-shards")
		seed     = flag.Uint64("seed", 1, "workload seed; the request list is a pure function of it")
		seconds  = flag.Float64("seconds", 20, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		commit   = flag.String("commit", "none", "source commit for the stamp")
		buildDir = flag.String("build-dir", ".bench_build", "directory for daemon state and trace files")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *commit, *buildDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64, buildDir string) (workload, error) {
	switch name {
	case "attack-mix":
		return newAttackMix(seed), nil
	case "enroll-only":
		return newEnrollOnly(seed), nil
	case "daemon-shards":
		return newDaemonShards(seed, buildDir)
	}
	return nil, fmt.Errorf("unknown workload %q (want attack-mix, enroll-only or daemon-shards)", name)
}

func run(name string, seed uint64, budget time.Duration, trace bool, commit, buildDir string) (err error) {
	ctx := context.Background()
	st := newStamp(name, seed, commit)
	w, err := newWorkload(name, seed, buildDir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	st.Requests, st.ListSHA256 = w.size(), w.listDigest()
	st.print()

	ref, err := w.reference(ctx)
	if err != nil {
		return fmt.Errorf("reference outputs: %w", err)
	}

	m := metrics{}
	var res *passResult
	if !trace {
		if res, err = measure(ctx, w, ref, nil, budget); err != nil {
			return err
		}
		res.endToEnd(m)
	} else {
		if err := probeKernels(m); err != nil {
			return fmt.Errorf("kernel probes: %w", err)
		}
		if res, err = measure(ctx, w, ref, nil, budget/2); err != nil {
			return err
		}
		res.runtimeLayers(m)
		tr := newTracer()
		// Every traced request must reproduce the untraced output.
		tres, err := measure(ctx, w, res.digests, tr, budget/2)
		if err != nil {
			return err
		}
		res.merge(tres)
		m.set("trace.overhead_share", "ratio", 1-tres.throughput()/res.throughput())
		tr.layers(m)
		if err := w.layers(ctx, res, tr, m); err != nil {
			return fmt.Errorf("layer metrics: %w", err)
		}
		path, err := tr.write(buildDir, name, seed)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace: %d traced requests; spans of the first %d written to %s\n", tr.requests, keepRequests, path)
		m.fillMissing(perLayerNames)
	}
	res.printSummary()
	return printResult(res, m)
}

// coldStart resets a preparer's state (untimed), cold-starts w and runs
// its warm-up requests. It returns the time of each step in seconds: the
// start, then each warm-up request.
func coldStart(ctx context.Context, w workload) ([]float64, error) {
	if p, ok := w.(preparer); ok {
		if err := p.prepare(); err != nil {
			return nil, fmt.Errorf("prepare cold start: %w", err)
		}
	}
	steps := make([]float64, 0, 1+w.warmup())
	t0 := time.Now()
	if err := w.start(ctx); err != nil {
		return nil, fmt.Errorf("cold start: %w", err)
	}
	steps = append(steps, time.Since(t0).Seconds())
	for i := range w.warmup() {
		t0 := time.Now()
		if _, err := w.request(ctx, i); err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		steps = append(steps, time.Since(t0).Seconds())
	}
	return steps, nil
}

// printResult writes the closing JSON line: correctness, request counts
// and the metrics.
func printResult(res *passResult, m metrics) error {
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.wrong == 0 && res.attempted > 0, res.attempted, res.failed + res.wrong, m}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// fillMissing reports per-layer metrics a workload does not exercise as
// 0, so every traced run prints the full set; README.md says which
// layers each workload measures.
func (m metrics) fillMissing(names map[string]string) {
	var missing []string
	for name, unit := range names {
		if _, ok := m[name]; !ok {
			m.set(name, unit, 0)
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		fmt.Printf("not measured on this workload (reported as 0): %v\n", missing)
	}
}

// perLayerNames lists the per-layer metrics every traced run reports,
// with their units: those of the workloads in BENCHMARK.json.
// daemon-shards adds its own campaignd.* and campaign.task_us_p50.
var perLayerNames = map[string]string{
	"rng.fill_ns_per_draw":                 "ns",
	"silicon.measure_dense_us":             "us",
	"silicon.measure_sparse_us.1of8":       "us",
	"silicon.measure_sparse_us.1of32":      "us",
	"ecc.decode_ns.bch31_t0":               "ns",
	"ecc.decode_ns.bch31_t3":               "ns",
	"ecc.decode_ns.bch63_t0":               "ns",
	"ecc.decode_ns.bch63_t3":               "ns",
	"device.enroll_us_p50":                 "us",
	"device.enroll_share":                  "ratio",
	"device.query_us_p50":                  "us",
	"device.query_count":                   "count",
	"device.query_share":                   "ratio",
	"device.write_us_p50":                  "us",
	"device.write_count":                   "count",
	"device.write_share":                   "ratio",
	"device.read_count":                    "count",
	"device.read_share":                    "ratio",
	"attack.self_share":                    "ratio",
	"attack.self_us_per_query":             "us",
	"campaign.pool_hit_ratio":              "ratio",
	"campaign.pool_slots":                  "count",
	"campaign.engine_overhead_us_per_task": "us",
	"runtime.allocs_per_op":                "count",
	"runtime.alloc_bytes_per_op":           "bytes",
	"runtime.gc_cpu_share":                 "ratio",
	"trace.unexplained_share":              "ratio",
	"trace.overhead_share":                 "ratio",
}
