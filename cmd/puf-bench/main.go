// Command puf-bench regenerates every table and figure of the paper as
// human-readable text (the numeric counterpart of the bench targets in
// bench_test.go; see the README's "Experiment ↔ paper mapping" for the
// experiment index).
//
// Usage:
//
//	puf-bench [-seed N] [-experiment all|E1..E12|A1|A2|A4|R1]
//	puf-bench -json [-count N] [-json-out BENCH_attacks.json]
//	         [-baseline BENCH_attacks.json] [-ns-gate-pct 15]
//	puf-bench [...] -cpuprofile cpu.out -memprofile mem.out
//	puf-bench -golden testdata
//
// With -json the tool instead benchmarks the five end-to-end attacks
// (the oracle-query hot path), CampaignAttacks (a pooled attack
// campaign, reported as attacks_per_sec_per_core) and EnrollCanonical
// (the five canonical devices' pooled enrollment) via testing.Benchmark and
// writes a machine-readable perf artifact — the host's stamp (Go
// version, GOOS/GOARCH, CPU model, GOMAXPROCS) and, per benchmark name,
// ns/op, allocs/op and B/op — so the repository
// accumulates a perf trajectory across PRs instead of anecdotes. Each
// benchmark runs -count times (default 5) and the artifact records
// per-field medians, so a noisy neighbor on the measurement host cannot
// contaminate the committed numbers. With -baseline the run
// additionally compares against a committed artifact and exits nonzero
// when any attack's allocs/op — deterministic — regresses by more than
// 2%, or when its median ns/op regresses by more than -ns-gate-pct
// percent (default 15; 0 disables the wall-clock gate for hosts that
// cannot hold a stable clock). The ns/op gate is enforced only when the
// baseline's stamp equals this host's: wall-clock numbers from another
// machine are printed, marked as not enforced.
//
// The -cpuprofile/-memprofile flags wrap either mode in a pprof capture
// (`go tool pprof` reads the output), the profiling workflow the README
// documents.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/transcript"
)

// benchConfig carries one invocation's settings through run().
type benchConfig struct {
	seed       uint64
	which      string
	jsonMode   bool
	jsonOut    string
	baseline   string
	count      int
	nsGatePct  float64
	goldenDir  string
	cpuProfile string
	memProfile string
}

func main() {
	seed := flag.Uint64("seed", 1, "master seed for all experiments")
	which := flag.String("experiment", "all", "experiment id (E1..E12, A1, A2, A4, R1) or 'all'")
	jsonMode := flag.Bool("json", false, "benchmark the attack hot paths and write a JSON perf artifact")
	jsonOut := flag.String("json-out", "BENCH_attacks.json", "output path of the -json artifact")
	count := flag.Int("count", 5, "benchmark repetitions per attack; the artifact records medians")
	baseline := flag.String("baseline", "", "committed artifact to compare against; >2% allocs/op or >ns-gate-pct ns/op regression fails")
	nsGatePct := flag.Float64("ns-gate-pct", 15, "median ns/op regression percentage that fails -baseline (0 disables)")
	goldenDir := flag.String("golden", "", "regenerate the transcript and campaign goldens under this directory (typically testdata) and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	// All work runs inside run() so its deferred profile writers flush
	// on EVERY exit path — a failing run is exactly when a profile is
	// wanted; os.Exit happens only after run returns.
	os.Exit(run(benchConfig{
		seed:       *seed,
		which:      *which,
		jsonMode:   *jsonMode,
		jsonOut:    *jsonOut,
		baseline:   *baseline,
		count:      *count,
		nsGatePct:  *nsGatePct,
		goldenDir:  *goldenDir,
		cpuProfile: *cpuProfile,
		memProfile: *memProfile,
	}))
}

// runGolden regenerates both golden directories under root: every
// transcript golden file into root/transcripts and every campaign golden
// into root/campaigns. They are the same bytes `go test -run TestGolden
// -update` writes, so CI can regenerate and `git diff` for staleness
// without invoking the test binary.
func runGolden(root string) error {
	dir := filepath.Join(root, "transcripts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := transcript.GoldenFiles()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		trs, err := transcript.RunAll(context.Background(), files[name])
		if err != nil {
			return err
		}
		data, err := transcript.Marshal(trs)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d transcripts)\n", path, len(trs))
	}

	dir = filepath.Join(root, "campaigns")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, task := range campaign.Tasks() {
		data, err := campaign.Golden(context.Background(), task.Name, 0)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, task.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// run executes one puf-bench invocation and returns the process status.
func run(cfg benchConfig) int {
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if cfg.memProfile == "" {
			return
		}
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}()

	if cfg.goldenDir != "" {
		if err := runGolden(cfg.goldenDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	if cfg.jsonMode {
		if err := runJSONBench(cfg, measureBenches); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	runners := []struct {
		id  string
		fn  func(benchConfig) error
		doc string
	}{
		{"E1", runE1, "Table I: compact and Kendall coding"},
		{"E2", runE2, "Fig. 2: frequency topology variance decomposition"},
		{"E3", runE3, "Fig. 3: pair classification vs threshold"},
		{"E4", runE4, "Fig. 5: failure-rate PDFs and distinguishability"},
		{"E5", runE5, "Fig. 6a / §VI-C: group-based full key recovery"},
		{"E6", runE6, "Fig. 6b / §VI-D: distiller + 1-out-of-k masking"},
		{"E7", runE7, "Fig. 6c / §VI-D: distiller + overlapping chain"},
		{"E8", runE8, "§VI-A: sequential pairing key recovery"},
		{"E9", runE9, "§VI-B: temperature-aware cooperative relations"},
		{"E11", runE11, "§II/§V-B: entropy accounting"},
		{"E12", runE12, "§VII: fuzzy extractor resistance"},
		{"A1", runA1, "ablation: storage-policy leakage (§VII-C)"},
		{"A2", runA2, "ablation: sequential vs fixed-sample distinguisher"},
		{"A4", runA4, "ablation: common-offset size vs separation and cost"},
		{"R1", runR1, "robustness: attack success rates across devices"},
	}
	ran := false
	for _, r := range runners {
		if cfg.which != "all" && cfg.which != r.id {
			continue
		}
		ran = true
		fmt.Printf("==== %s — %s ====\n", r.id, r.doc)
		if err := r.fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			return 1
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cfg.which)
		return 2
	}
	return 0
}

func runE1(benchConfig) error {
	rows := experiments.TableI()
	fmt.Printf("%-6s %-8s %-8s\n", "Order", "Compact", "Kendall")
	for _, r := range rows {
		fmt.Printf("%-6s %-8s %-8s\n", r.Order, r.Compact, r.Kendall)
	}
	return nil
}

func runE2(cfg benchConfig) error {
	r, err := experiments.Fig2(cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("array %dx%d\n", r.Rows, r.Cols)
	fmt.Printf("raw frequency variance        : %8.3f MHz^2\n", r.RawVariance)
	fmt.Printf("true systematic variance      : %8.3f MHz^2\n", r.SystVariance)
	fmt.Printf("true random variance          : %8.3f MHz^2\n", r.RandVariance)
	fmt.Printf("residual variance after p=2 fit: %7.3f MHz^2\n", r.ResidualVar)
	fmt.Printf("distillation gain             : %8.2fx\n", r.RawVariance/r.ResidualVar)
	return nil
}

func runE3(cfg benchConfig) error {
	rows, err := experiments.Fig3(cfg.seed, []float64{0.2, 0.4, 0.6, 0.8, 1.2, 1.6, 2.4})
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-6s %-6s %-6s %-8s\n", "threshold MHz", "good", "bad", "coop", "key bits")
	for _, r := range rows {
		fmt.Printf("%-14.2f %-6d %-6d %-6d %-8d\n", r.ThresholdMHz, r.Good, r.Bad, r.Coop, r.KeyBits)
	}
	return nil
}

func runE4(cfg benchConfig) error {
	r, err := experiments.Fig5(cfg.seed, 2000)
	if err != nil {
		return err
	}
	fmt.Printf("ECC radius t = %d\n", r.T)
	fmt.Printf("%-8s %-10s %-10s %-10s\n", "#errors", "nominal", "H0", "H1")
	max := 0
	for _, h := range []interface{ Support() []int }{r.Nominal, r.H0, r.H1} {
		if s := h.Support(); len(s) > 0 && s[len(s)-1] > max {
			max = s[len(s)-1]
		}
	}
	for e := 0; e <= max; e++ {
		fmt.Printf("%-8d %-10.4f %-10.4f %-10.4f\n", e, r.Nominal.P(e), r.H0.P(e), r.H1.P(e))
	}
	fmt.Printf("P(fail) nominal=%.4f H0=%.4f H1=%.4f\n", r.FailNominal, r.FailH0, r.FailH1)
	fmt.Printf("TV distance(H0,H1)=%.4f; fixed-sample queries @1%% error: %d\n", r.TVDistance, r.FixedSamples)
	return nil
}

// attackSpec builds the transcript Spec for one attack-backed
// experiment.
func attackSpec(cfg benchConfig, name string, expurgate bool) transcript.Spec {
	return transcript.Spec{Attack: name, Seed: cfg.seed, Expurgate: expurgate}
}

func runE5(cfg benchConfig) error {
	r, err := transcript.Run(context.Background(), attackSpec(cfg, "groupbased", false))
	if err != nil {
		return err
	}
	fmt.Printf("4x10 array, %d groups, key %d bits\n", r.Groups, r.EnrolledKeyBits)
	fmt.Printf("groups resolved : %d/%d\n", r.Resolved, r.Groups)
	fmt.Printf("full key        : recovered=%v in %d oracle queries\n", r.Recovered, r.Queries)
	return nil
}

func runE6(cfg benchConfig) error {
	r, err := transcript.Run(context.Background(), attackSpec(cfg, "masking", false))
	if err != nil {
		return err
	}
	fmt.Printf("base pair bits recovered: %d; key bits: %d\n", r.BaseBits, r.EnrolledKeyBits)
	fmt.Printf("key recovered=%v in %d oracle queries\n", r.Recovered, r.Queries)
	return nil
}

func runE7(cfg benchConfig) error {
	r, err := transcript.Run(context.Background(), attackSpec(cfg, "chain", false))
	if err != nil {
		return err
	}
	fmt.Printf("overlapping chain: %d bits; max hypothesis set: 2^b = %d\n", r.EnrolledKeyBits, r.MaxHypotheses)
	fmt.Printf("key recovered=%v in %d oracle queries\n", r.Recovered, r.Queries)
	return nil
}

func runE8(cfg benchConfig) error {
	for _, exp := range []bool{false, true} {
		r, err := transcript.Run(context.Background(), attackSpec(cfg, "seqpair", exp))
		if err != nil {
			return err
		}
		code := "plain BCH"
		if exp {
			code = "expurgated BCH"
		}
		fmt.Printf("%-15s: %d bits, exact=%v up-to-complement=%v ambiguous=%v, %d queries\n",
			code, r.EnrolledKeyBits, r.Recovered, r.UpToComplement, r.Ambiguous, r.Queries)
	}
	return nil
}

func runE9(cfg benchConfig) error {
	r, err := transcript.Run(context.Background(), attackSpec(cfg, "tempco", false))
	if err != nil {
		return err
	}
	fmt.Printf("cooperating pairs      : %d (skipped %d in-interval at ambient)\n", r.CoopPairs, r.Skipped)
	fmt.Printf("relations recovered    : %d (%d correct)\n", r.RelationsFound, r.RelationsRight)
	fmt.Printf("absolute mask-good bits: %d (%d correct)\n", r.MaskBitsFound, r.MaskBitsRight)
	fmt.Printf("oracle queries         : %d\n", r.Queries)
	return nil
}

func runE11(cfg benchConfig) error {
	rows := experiments.EntropyAccounting(cfg.seed, []float64{0.2, 0.4, 0.6, 1.0, 1.5, 2.0})
	if rows == nil {
		return fmt.Errorf("entropy accounting failed")
	}
	fmt.Printf("total entropy upper bound log2(128!) = %.1f bits\n", rows[0].TotalBits)
	fmt.Printf("%-14s %-8s %-14s %-10s\n", "threshold MHz", "groups", "entropy bits", "key bits")
	for _, r := range rows {
		fmt.Printf("%-14.2f %-8d %-14.2f %-10d\n", r.ThresholdMHz, r.Groups, r.EntropyBits, r.KeyBits)
	}
	return nil
}

func runE12(cfg benchConfig) error {
	r, err := experiments.FuzzyResistance(cfg.seed, 60)
	if err != nil {
		return err
	}
	fmt.Printf("single-manipulation distinguishing advantage:\n")
	fmt.Printf("  LISA (sequential pairing): %.3f   <- the attack's signal\n", r.SeqPairAdvantage)
	fmt.Printf("  fuzzy extractor          : %.3f   <- no side channel\n", r.FuzzyAdvantage)
	fmt.Printf("(%d oracle queries total)\n", r.Queries)
	return nil
}

func runA1(cfg benchConfig) error {
	r, err := experiments.AblationStoragePolicy(context.Background(), cfg.seed, 20)
	if err != nil {
		return err
	}
	fmt.Printf("sorted storage     : %.3f of enrolled bits are 1 (full direct leakage)\n", r.SortedOnesFraction)
	fmt.Printf("randomized storage : %.3f of enrolled bits are 1 (no leakage)\n", r.RandomizedOnesFraction)
	return nil
}

func runA2(cfg benchConfig) error {
	r, err := experiments.AblationStrategy(context.Background(), cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("sequential (SPRT) distinguisher: %d oracle queries\n", r.SequentialQueries)
	fmt.Printf("fixed-sample distinguisher     : %d oracle queries\n", r.FixedSampleQueries)
	fmt.Printf("both recovered the key         : %v\n", r.BothRecovered)
	return nil
}

func runA4(cfg benchConfig) error {
	rows, err := experiments.AblationOffsetSize(context.Background(), cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %-12s %-10s %-10s\n", "offset", "p(correct)", "p(wrong)", "queries", "recovered")
	for _, r := range rows {
		fmt.Printf("%-8d %-12.3f %-12.3f %-10d %-10v\n", r.InjectErrors, r.PNominal, r.PElevated, r.Queries, r.Recovered)
	}
	return nil
}

// runR1 prints the per-attack means of the attack-success campaign
// over five seeds: `puf-campaign -task attack-success -base <seed*1000>
// -seeds 5` reports the same numbers.
func runR1(cfg benchConfig) error {
	res, err := campaign.Run(context.Background(), campaign.Spec{
		Task: "attack-success", BaseSeed: cfg.seed * 1000, Seeds: 5,
	})
	if err != nil {
		return err
	}
	means := make(map[string]float64, len(res.Aggregates))
	for _, a := range res.Aggregates {
		means[a.Metric] = a.Mean
	}
	fmt.Printf("means of campaign attack-success over %d seeds (base %d):\n", res.Seeds, res.BaseSeed)
	for _, row := range []struct{ label, metric string }{
		{"§VI-A sequential pairing", "seqpair-recovered"},
		{"§VI-C group-based       ", "groupbased-recovered"},
		{"§VI-D distiller+masking ", "masking-recovered"},
		{"§VI-D distiller+chain   ", "chain-recovered"},
		{"§VI-B relation accuracy ", "tempco-relation-accuracy"},
	} {
		if m, ok := means[row.metric]; ok {
			fmt.Printf("  %s : %.2f\n", row.label, m)
		} else {
			fmt.Printf("  %s : n/a\n", row.label)
		}
	}
	return nil
}

// Artifact is the BENCH_attacks.json file: the stamp of the host that
// measured it and one record per benchmark name.
type Artifact struct {
	Stamp      Stamp                  `json:"stamp"`
	Benchmarks map[string]BenchRecord `json:"benchmarks"`
}

// Stamp identifies the host an artifact was measured on. Wall-clock
// numbers are comparable only between equal stamps.
type Stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// hostStamp stamps the running host.
func hostStamp() Stamp {
	return Stamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel returns the first "model name" line of /proc/cpuinfo, or
// "unknown" on hosts without one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// String implements fmt.Stringer.
func (s Stamp) String() string {
	return fmt.Sprintf("%s %s/%s %q GOMAXPROCS=%d", s.GoVersion, s.GOOS, s.GOARCH, s.CPU, s.GOMAXPROCS)
}

// BenchRecord is one entry of the BENCH_attacks.json artifact. The
// throughput fields are derived from the median ns/op after reduction,
// so they carry no extra noise; each is populated only on the record it
// describes (omitempty keeps the attack records unchanged).
type BenchRecord struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	Iterations  int   `json:"iterations"`
	// AttacksPerSecPerCore: end-to-end pooled attack campaign
	// throughput, normalized by the record's fixed worker count
	// (CampaignAttacks record).
	AttacksPerSecPerCore float64 `json:"attacks_per_sec_per_core,omitempty"`
}

// medianInt64 returns the median of xs (lower-middle for even counts),
// sorting a copy.
func medianInt64(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// medianRecord reduces repeated measurements of one benchmark to their
// per-field medians. The deterministic field (allocs/op) is identical
// across repetitions; the median protects the timing-derived ones from
// scheduler noise on the measurement host.
func medianRecord(recs []BenchRecord) BenchRecord {
	ns := make([]int64, len(recs))
	allocs := make([]int64, len(recs))
	bytes := make([]int64, len(recs))
	iters := make([]int64, len(recs))
	for i, r := range recs {
		ns[i], allocs[i], bytes[i], iters[i] = r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, int64(r.Iterations)
	}
	return BenchRecord{
		NsPerOp:     medianInt64(ns),
		AllocsPerOp: medianInt64(allocs),
		BytesPerOp:  medianInt64(bytes),
		Iterations:  int(medianInt64(iters)),
	}
}

// loadBaseline reads and parses the committed artifact at path.
func loadBaseline(path string) (Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var base Artifact
	if err := json.Unmarshal(data, &base); err != nil {
		return Artifact{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return Artifact{}, fmt.Errorf("parse %s: no benchmarks", path)
	}
	return base, nil
}

// compareBaseline prints the comparison of cur against base to w and
// returns an error naming every failure. Two gates fail: allocs/op
// beyond 2% of the baseline (deterministic, so the tolerance only
// absorbs rounding from iteration-count changes), always; and median
// ns/op beyond nsGatePct percent, only when both artifacts carry the
// same host stamp — the -count medians on both sides are what make a
// wall-clock gate tenable at all, and only on one machine. On a stamp
// mismatch the ns/op column is printed as not enforced, naming both
// stamps; nsGatePct <= 0 makes it informational on any host.
func compareBaseline(w io.Writer, cur, base Artifact, nsGatePct float64) error {
	nsMode := "gated"
	switch {
	case nsGatePct <= 0:
		nsMode = "informational"
	case cur.Stamp != base.Stamp:
		nsMode = "not enforced"
		fmt.Fprintf(w, "ns/op gate not enforced: baseline stamped %v, this run %v\n", base.Stamp, cur.Stamp)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-18s MISSING from this run (baseline %d allocs/op)\n", name, b.AllocsPerOp)
			failures = append(failures, name+" missing")
			continue
		}
		allocLimit := float64(b.AllocsPerOp) * 1.02
		status := "ok"
		if float64(c.AllocsPerOp) > allocLimit {
			status = "ALLOC REGRESSION"
			failures = append(failures, fmt.Sprintf("%s allocs/op %d -> %d", name, b.AllocsPerOp, c.AllocsPerOp))
		}
		nsDelta := 100 * float64(c.NsPerOp-b.NsPerOp) / float64(b.NsPerOp)
		if nsMode == "gated" && nsDelta > nsGatePct {
			status = "NS REGRESSION"
			failures = append(failures, fmt.Sprintf("%s ns/op %d -> %d (%+.1f%%)", name, b.NsPerOp, c.NsPerOp, nsDelta))
		}
		fmt.Fprintf(w, "%-18s allocs/op %d -> %d (limit %.0f) %-16s ns/op %d -> %d (%+.1f%%, %s)\n",
			name, b.AllocsPerOp, c.AllocsPerOp, allocLimit, status,
			b.NsPerOp, c.NsPerOp, nsDelta, nsMode)
	}
	// Forward compatibility: a benchmark present in this run but absent
	// from the committed baseline is informational, never a failure —
	// new benchmarks land in the same PR that adds them, before any
	// baseline that knows their names exists.
	fresh := make([]string, 0)
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		rec := cur.Benchmarks[name]
		fmt.Fprintf(w, "%-18s NEW (no baseline) %d ns/op %d allocs/op\n", name, rec.NsPerOp, rec.AllocsPerOp)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%v", failures)
	}
	return nil
}

// runJSONBench runs measure and writes its artifact to cfg.jsonOut.
// With a baseline it reads and parses the baseline before anything
// runs, so an artifact written over the baseline's path (the default
// -json-out is the committed BENCH_attacks.json) is compared against
// the bytes that were there, not against itself.
func runJSONBench(cfg benchConfig, measure func(benchConfig) (Artifact, error)) error {
	var base Artifact
	if cfg.baseline != "" {
		var err error
		if base, err = loadBaseline(cfg.baseline); err != nil {
			return err
		}
	}
	artifact, err := measure(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(cfg.jsonOut, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%v)\n", cfg.jsonOut, artifact.Stamp)
	if cfg.baseline == "" {
		return nil
	}
	if err := compareBaseline(os.Stdout, artifact, base, cfg.nsGatePct); err != nil {
		return fmt.Errorf("regressed beyond the baseline %s: %w", cfg.baseline, err)
	}
	return nil
}

// measureBenches measures the five end-to-end attacks, the pooled
// attack campaign and the canonical pooled enrollment with
// testing.Benchmark. It records no query counts: an iteration's seed
// depends on b.N, so a count would vary between runs of the same code
// (the transcript goldens pin query counts).
func measureBenches(cfg benchConfig) (Artifact, error) {
	count := cfg.count
	if count < 1 {
		count = 1
	}
	seed := cfg.seed
	ctx := context.Background()
	// benchAttack measures one attack end to end via transcript.Run; only the
	// seqpair bench runs the expurgated subcode, matching the historical
	// artifact.
	benchAttack := func(name string, seedOff uint64) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := transcript.Run(ctx, transcript.Spec{
					Attack:    name,
					Seed:      seed + uint64(i)*3 + seedOff,
					Expurgate: name == "seqpair",
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// CampaignAttacks: one op = a pooled seqpair-attack campaign over
	// campaignSeeds device populations on campaignWorkers workers — the
	// end-to-end number the per-core throughput field derives from. The
	// worker count is fixed, not GOMAXPROCS, because each worker's
	// device pool adds its own allocations: allocs/op must not depend on
	// the host's core count for its gate to bind.
	const campaignSeeds, campaignWorkers = 16, 2
	benchCampaign := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := campaign.Run(ctx, campaign.Spec{
				Task: "seqpair-attack", BaseSeed: seed, Seeds: campaignSeeds, Workers: campaignWorkers,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	// EnrollCanonical: one op = the five canonical devices enrolled
	// through transcript's pooled enrollment, each adopting its pooled
	// carcass — the enrollment a campaign worker runs per seed, without
	// the attack. The seeds cycle, so allocs/op does not depend on b.N
	// once the pool is warm.
	const enrollSeeds = 64
	pool := campaign.NewPool()
	enrollCanonical := func(i int) error {
		for _, name := range transcript.Attacks() {
			spec := transcript.Spec{Attack: name, Seed: seed + uint64(i%enrollSeeds), Expurgate: name == "seqpair"}
			if _, _, err := transcript.Enroll(spec, pool); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, spec.Seed, err)
			}
		}
		return nil
	}
	if err := enrollCanonical(0); err != nil { // warm the pool
		return Artifact{}, err
	}
	benchEnroll := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := enrollCanonical(i); err != nil {
				b.Fatal(err)
			}
		}
	}
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"AttackSeqPair", benchAttack("seqpair", 5)},
		{"AttackTempCo", benchAttack("tempco", 7)},
		{"AttackGroupBased", benchAttack("groupbased", 9)},
		{"AttackMasking", benchAttack("masking", 11)},
		{"AttackChain", benchAttack("chain", 13)},
		{"CampaignAttacks", benchCampaign},
		{"EnrollCanonical", benchEnroll},
	}
	artifact := Artifact{Stamp: hostStamp(), Benchmarks: make(map[string]BenchRecord, len(benches))}
	for _, bench := range benches {
		recs := make([]BenchRecord, 0, count)
		for c := 0; c < count; c++ {
			res := testing.Benchmark(bench.fn)
			if res.N == 0 {
				// testing.Benchmark swallows b.Fatal; a zero-iteration
				// result means the attack under measurement failed.
				return Artifact{}, fmt.Errorf("%s failed to complete a single iteration", bench.name)
			}
			recs = append(recs, BenchRecord{
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				Iterations:  res.N,
			})
		}
		rec := medianRecord(recs)
		// Throughput fields derive from the median ns/op so they inherit
		// its noise rejection instead of adding a second noisy estimate.
		if rec.NsPerOp > 0 {
			if bench.name == "CampaignAttacks" {
				rec.AttacksPerSecPerCore = campaignSeeds * 1e9 / float64(rec.NsPerOp) / campaignWorkers
			}
		}
		artifact.Benchmarks[bench.name] = rec
		fmt.Printf("%-18s %12d ns/op %10d allocs/op %10d B/op (median of %d)\n",
			bench.name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp, count)
	}
	return artifact, nil
}
