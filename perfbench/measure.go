package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minPasses is the fewest passes over the request list (each after its
// own cold start) one measurement makes, so that the medians over passes
// and over cold starts are real medians.
const minPasses = 5

// passResult accumulates one measurement: repeated identical passes
// over the request list, one closed-loop client.
type passResult struct {
	passes    int
	attempted int
	failed    int // requests that returned an error
	wrong     int // requests whose output differed from the reference or from pass 0
	errs      []string
	digests   map[int]string // pass-0 output digests
	// Per pass: requests per second of busy time and process CPU per
	// request.
	passRates, passCPU []float64
	// Per request: its median latency over all passes, ms.
	reqLat []float64
	// Per cold start: the time of each step, s.
	setups [][]float64
	// pass-0 totals; later passes must repeat them request by request.
	ops, queries, recovered int
	rssMB                   float64 // peak RSS after set-up and pass 0
	allocs, allocBytes      float64
	gcCPU, totalCPU         float64
	host                    string // host CPU accounting over the measurement
}

func (r *passResult) note(i int, err error) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("request %d: %v", i, err))
	}
}

// preparer is implemented by workloads whose system state grows with
// every request (the daemon's job table and state directory). prepare
// stops the started system and resets that state, untimed, before a
// cold start, so that every pass does identical work.
type preparer interface {
	prepare() error
}

// measure runs cold starts, each followed by a whole pass over the
// request list, until the next one would overrun budget (at least
// minPasses). Every pass does identical work, so each request's latency
// is taken as its median over the passes: a burst of host steal time or
// a GC cycle that slows a request in a minority of passes drops out.
// Throughput is the request count over the sum of these medians (which
// leaves out the benchmark's own output checks), and the latency
// percentiles are over them. setup_s is likewise the sum, step by step,
// of the cold starts' median step times; interleaving the cold starts
// with the passes spreads them over the whole run instead of the first
// second of it. CPU time is the process's user+system time per pass,
// and the run reports the median pass.
func measure(ctx context.Context, w workload, ref map[int]string, tr *tracer, budget time.Duration) (*passResult, error) {
	n := w.size()
	res := &passResult{digests: make(map[int]string, n)}
	first := make([]outcome, n)
	firstOK := make([]bool, n)
	var lats [][]float64 // per pass, per request, ms
	stat0 := procStat()
	start := time.Now()
	for pass := 0; ; pass++ {
		it0 := time.Now()
		steps, err := coldStart(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("before pass %d: %w", pass, err)
		}
		res.setups = append(res.setups, steps)
		var busy time.Duration
		lat := make([]float64, n)
		lats = append(lats, lat)
		cpu0, rt0 := cpuTime(), readRuntime()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			var o outcome
			var err error
			if tr != nil {
				o, err = w.traced(ctx, i, tr)
			} else {
				o, err = w.request(ctx, i)
			}
			d := time.Since(t0)
			busy += d
			lat[i] = float64(d.Nanoseconds()) / 1e6
			res.attempted++
			if err != nil {
				res.failed++
				res.note(i, err)
				continue
			}
			if want, ok := ref[i]; ok && o.digest != want {
				res.wrong++
				res.note(i, fmt.Errorf("output digest %s, reference %s", o.digest, want))
				continue
			}
			switch {
			case pass == 0:
				first[i], firstOK[i] = o, true
				res.digests[i] = o.digest
				res.ops += o.ops
				res.queries += o.queries
				res.recovered += o.recovered
			case !firstOK[i]:
				// Failed on pass 0; nothing to compare against.
			case o != first[i]:
				res.wrong++
				res.note(i, fmt.Errorf("pass %d output %+v differs from pass 0 %+v", pass, o, first[i]))
			}
		}
		res.passCPU = append(res.passCPU, float64((cpuTime()-cpu0).Nanoseconds())/1e6/float64(n))
		rt1 := readRuntime()
		res.allocs += rt1[0] - rt0[0]
		res.allocBytes += rt1[1] - rt0[1]
		res.gcCPU += rt1[2] - rt0[2]
		res.totalCPU += rt1[3] - rt0[3]
		res.passes++
		res.passRates = append(res.passRates, float64(n)/busy.Seconds())
		if pass == 0 {
			res.rssMB = peakRSSMB()
		}
		if res.passes >= minPasses && time.Since(start)+time.Since(it0) > budget {
			break
		}
	}
	res.host = hostShares(stat0, procStat())
	res.reqLat = medians(lats)
	return res, nil
}

// throughput is requests per second of summed per-request median
// latency.
func (r *passResult) throughput() float64 {
	return float64(len(r.reqLat)) / (sum(r.reqLat) / 1e3)
}

// merge folds a second measurement's request accounting into r.
func (r *passResult) merge(o *passResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.errs = append(r.errs, o.errs...)
}

// endToEnd sets every end-to-end metric.
func (r *passResult) endToEnd(m metrics) {
	m.set("setup_s", "s", sum(medians(r.setups)))
	m.set("throughput_per_s", "1/s", r.throughput())
	m.set("latency_ms_p50", "ms", percentile(r.reqLat, 0.50))
	m.set("latency_ms_p99", "ms", percentile(r.reqLat, 0.99))
	m.set("cpu_ms_per_op", "ms", median(r.passCPU))
	m.set("peak_rss_mb", "MB", r.rssMB)
	m.set("queries_per_op", "count", ratio(r.queries, r.ops))
	m.set("recovery_rate", "ratio", ratio(r.recovered, r.ops))
	m.set("success_rate", "ratio", ratio(r.attempted-r.failed-r.wrong, r.attempted))
}

// runtimeLayers sets the runtime/metrics per-layer numbers.
func (r *passResult) runtimeLayers(m metrics) {
	m.set("runtime.allocs_per_op", "count", r.allocs/float64(r.attempted))
	m.set("runtime.alloc_bytes_per_op", "bytes", r.allocBytes/float64(r.attempted))
	gc := 0.0
	if r.totalCPU > 0 {
		gc = r.gcCPU / r.totalCPU
	}
	m.set("runtime.gc_cpu_share", "ratio", gc)
}

func (r *passResult) printSummary() {
	n := len(r.reqLat)
	beyond := n - int(math.Ceil(0.99*float64(n)))
	totals := make([]float64, len(r.setups))
	for i, steps := range r.setups {
		totals[i] = sum(steps)
	}
	fmt.Printf("setup s per cold start: %v; sum of step medians %.4f\n", roundAll(totals, 4), sum(medians(r.setups)))
	fmt.Printf("passes: %d of %d requests; latency percentiles over %d per-request medians (%d beyond p99)\n",
		r.passes, n, n, beyond)
	fmt.Printf("latency ms: p50 %.4f, p90 %.4f, p99 %.4f\n",
		percentile(r.reqLat, 0.50), percentile(r.reqLat, 0.90), percentile(r.reqLat, 0.99))
	fmt.Printf("requests/s per pass (busy time): %v\n", roundAll(r.passRates, 1))
	fmt.Printf("cpu ms per request per pass: %v\n", roundAll(r.passCPU, 4))
	fmt.Printf("host CPU time during measurement: %s\n", r.host)
	fmt.Printf("pass 0: %d ops, %d oracle queries, %d recovered; attempted %d, failed %d, wrong %d\n",
		r.ops, r.queries, r.recovered, r.attempted, r.failed, r.wrong)
	for _, e := range r.errs {
		fmt.Printf("error: %s\n", e)
	}
}

// ------------------------------------------------------------ stats --

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// medians returns, column by column, the median of rows (all of equal
// length): each request's or step's median over repetitions of
// identical work.
func medians(rows [][]float64) []float64 {
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for i := range out {
		for r, row := range rows {
			col[r] = row[i]
		}
		out[i] = median(col)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func roundAll(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	scale := math.Pow(10, float64(digits))
	for i, x := range xs {
		out[i] = math.Round(x*scale) / scale
	}
	return out
}

// ----------------------------------------------------------- process --

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStat returns the aggregate "cpu" line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal, ...), or nil.
func procStat() []float64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]float64, len(f)-1)
	for i, x := range f[1:] {
		fmt.Sscan(x, &out[i])
	}
	return out
}

// hostShares describes how the machine's CPU time was spent between two
// procStat readings. Steal time (the hypervisor running other guests)
// slows every wall-clock metric and is the usual cause of a slow run.
func hostShares(a, b []float64) string {
	if a == nil || b == nil || len(a) != len(b) {
		return "unavailable"
	}
	var total float64
	d := make([]float64, len(a))
	for i := range a {
		d[i] = b[i] - a[i]
		total += d[i]
	}
	if total <= 0 {
		return "unavailable"
	}
	return fmt.Sprintf("busy %.1f%%, idle %.1f%%, iowait %.1f%%, steal %.1f%%",
		100*(d[0]+d[1]+d[2]+d[5]+d[6])/total, 100*d[3]/total, 100*d[4]/total, 100*d[7]/total)
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime reads runtimeSamples in order as float64s.
func readRuntime() []float64 {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// ------------------------------------------------------------- stamp --

// stamp identifies the machine, toolchain, sources and inputs a run's
// numbers belong to. Numbers under different stamps are not comparable.
type stamp struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Requests     int    `json:"requests_per_pass"`
	ListSHA256   string `json:"request_list_sha256"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Commit       string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func newStamp(name string, seed uint64, commit string) *stamp {
	return &stamp{
		Workload:     name,
		Seed:         seed,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Commit:       commit,
		SourceSHA256: sourceDigest(),
	}
}

func (s *stamp) print() {
	blob, _ := json.Marshal(s) // plain struct of strings and ints: cannot fail
	fmt.Printf("stamp: %s\n", blob)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources (go.mod, internal/,
// cmd/), so a stamp names the code even in a checkout without git
// metadata.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"internal", "cmd"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, path := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf is the hex SHA-256 of b.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
