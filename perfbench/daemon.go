package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaignd"
	"repro/internal/rng"
)

const (
	daemonJobs        = 1000 // campaigns per pass
	daemonSeedsPerJob = 2    // one shard per seed
	daemonGenerated   = 64   // completed campaigns left in the state directory for recovery
	daemonWarmup      = 32   // cold-start campaigns
	daemonTask        = "masking-attack"
)

// daemonShards drives an in-process campaignd.Manager behind
// campaignd.NewServer on a loopback listener. One request is one small
// campaign: submit over HTTP, follow its SSE stream to the terminal
// event, GET the result. Only here do per-shard daemon costs — HTTP,
// JSONL append + fsync + SHA-256, SSE broadcast, a fresh pool per shard
// — take a large share of request time.
type daemonShards struct {
	specs  []campaignd.Spec
	dir    string // private directory under the build directory
	gen    string // state directory the input generator left
	starts int    // cold starts so far; names the current state directory

	// started system
	m      *campaignd.Manager
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func newDaemonShards(seed uint64, buildDir string) (*daemonShards, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemonShards{dir: dir, gen: filepath.Join(dir, "generated"), specs: make([]campaignd.Spec, daemonJobs)}
	for i := range d.specs {
		d.specs[i] = campaignd.Spec{
			Task: daemonTask, BaseSeed: rng.StreamSeed(seed, uint64(i)), Seeds: daemonSeedsPerJob,
			Workers: runtime.NumCPU(), Noise: "counter", ShardSize: 1,
		}
	}
	return d, nil
}

func (d *daemonShards) size() int { return len(d.specs) }

func (d *daemonShards) listDigest() string {
	blob, _ := json.Marshal(d.specs) // plain structs: cannot fail
	return digestOf(blob)
}

func engineSpec(s campaignd.Spec) campaign.Spec {
	return campaign.Spec{Task: s.Task, BaseSeed: s.BaseSeed, Seeds: s.Seeds, Workers: s.Workers,
		Options: campaign.Options{Noise: s.Noise}}
}

// reference runs every spec through in-process campaign.Run (each daemon
// result must be byte-identical to it), then generates the state the
// daemon recovers at each cold start: a generator daemon runs the first
// specs to completion and leaves their checkpoints behind.
func (d *daemonShards) reference(ctx context.Context) (map[int]string, error) {
	ref := make(map[int]string, len(d.specs))
	for i, s := range d.specs {
		res, err := campaign.Run(ctx, engineSpec(s))
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		ref[i] = digestOf(blob)
	}

	m, err := campaignd.New(campaignd.Options{StateDir: d.gen})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	for i := 0; i < daemonGenerated; i++ {
		st, err := m.Submit(d.specs[i])
		if err != nil {
			return nil, err
		}
		events, release, err := m.Subscribe(st.ID)
		if err != nil {
			return nil, err
		}
		var last campaignd.Event
		for ev := range events {
			last = ev
		}
		release()
		if last.State != campaignd.StateDone {
			return nil, fmt.Errorf("generator campaign %s ended %q: %s", st.ID, last.State, last.Error)
		}
	}
	return ref, nil
}

// prepare stops the running daemon, deletes its state, and copies the
// generated state directory to a fresh one for the next cold start
// (untimed).
func (d *daemonShards) prepare() error {
	if err := d.stop(); err != nil {
		return err
	}
	if err := os.RemoveAll(d.state()); err != nil {
		return err
	}
	d.starts++
	state := d.state()
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(d.gen)
	if err != nil {
		return err
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(d.gen, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(state, e.Name()), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// start is the daemon's cold start: campaignd.New and Recover over the
// generated checkpoints, the HTTP server on a loopback listener and a
// health check.
func (d *daemonShards) start(context.Context) error {
	m, err := campaignd.New(campaignd.Options{StateDir: d.state()})
	if err != nil {
		return err
	}
	if err := m.Recover(); err != nil {
		m.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return err
	}
	d.m = m
	d.srv = &http.Server{Handler: campaignd.NewServer(m)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Timeout: time.Minute}

	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return err
	}
	drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	if n := len(m.List()); n != daemonGenerated {
		return fmt.Errorf("recovered %d campaigns, want %d", n, daemonGenerated)
	}
	return nil
}

func (d *daemonShards) warmup() int { return daemonWarmup }

func (d *daemonShards) state() string {
	return filepath.Join(d.dir, fmt.Sprintf("state-%d", d.starts))
}

// stop shuts the started daemon down and waits for its server.
func (d *daemonShards) stop() error {
	if d.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	d.m.Close()
	d.srv, d.m = nil, nil
	return err
}

func (d *daemonShards) close() error {
	err := d.stop()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *daemonShards) request(ctx context.Context, i int) (outcome, error) {
	return d.traced(ctx, i, nil)
}

// traced runs one campaign over HTTP. Any non-2xx response, and a
// stream that ends before its terminal event (which a client would
// have to reconnect through), fails the request.
func (d *daemonShards) traced(ctx context.Context, i int, t *tracer) (outcome, error) {
	req := t.begin("request")
	defer t.end(req)

	body, err := json.Marshal(d.specs[i])
	if err != nil {
		return outcome{}, err
	}
	sub := t.begin("campaignd.submit")
	var st campaignd.JobStatus
	err = d.call(ctx, http.MethodPost, "/v1/campaigns", body, http.StatusCreated, &st)
	t.end(sub)
	if err != nil {
		return outcome{}, err
	}

	stream := t.begin("campaignd.stream")
	err = d.follow(ctx, st.ID, t)
	t.end(stream)
	if err != nil {
		return outcome{}, err
	}

	get := t.begin("campaignd.result")
	var done struct {
		State  campaignd.State `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	err = d.call(ctx, http.MethodGet, "/v1/campaigns/"+st.ID, nil, http.StatusOK, &done)
	t.end(get)
	if err != nil {
		return outcome{}, err
	}
	if done.State != campaignd.StateDone {
		return outcome{}, fmt.Errorf("campaign %s ended %q", st.ID, done.State)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, done.Result); err != nil {
		return outcome{}, err
	}
	var res campaign.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		return outcome{}, err
	}
	o := outcome{digest: digestOf(compact.Bytes())}
	for _, oc := range res.Outcomes {
		o.ops++
		o.queries += int(oc.Metrics["oracle-queries"])
		o.recovered += int(oc.Metrics["recovered"])
	}
	return o, nil
}

// call makes one JSON request and decodes the response into out.
func (d *daemonShards) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drain reads a response body to EOF and closes it, so the client can
// reuse the connection.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

// follow reads a campaign's SSE stream to its terminal event, recording
// the gaps between events when traced.
func (d *daemonShards) follow(ctx context.Context, id string, t *tracer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/campaigns/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var last time.Time
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if t != nil {
				now := time.Now()
				if !last.IsZero() {
					t.gaps = append(t.gaps, float64(now.Sub(last).Nanoseconds())/1e6)
				}
				last = now
			}
			if event != "done" {
				continue
			}
			var ev campaignd.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return err
			}
			if ev.State != campaignd.StateDone {
				return fmt.Errorf("campaign %s ended %q: %s", id, ev.State, ev.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream %s ended before its terminal event", id)
}

// layers reports the daemon's per-layer numbers: client-side submit and
// SSE timings from the traced pass, the share of campaign time the
// daemon adds over in-process campaign.Run of the same specs, counters
// from /metrics, and the masking-attack task's own time per seed.
func (d *daemonShards) layers(ctx context.Context, untraced *passResult, t *tracer, m metrics) error {
	m.set("campaignd.submit_ms_p50", "ms", median(t.durs["campaignd.submit"])/1e3)
	m.set("campaignd.event_gap_ms_p50", "ms", percentile(t.gaps, 0.50))
	m.set("campaignd.event_gap_ms_p99", "ms", percentile(t.gaps, 0.99))

	// The in-process side is timed here, warm and right after the
	// traced passes, as one pass in the untraced passes' terms: specs
	// over summed time, against their median pass.
	for _, s := range d.specs[:daemonWarmup] {
		if _, err := campaign.Run(ctx, engineSpec(s)); err != nil {
			return err
		}
	}
	var inproc time.Duration
	for _, s := range d.specs {
		t0 := time.Now()
		if _, err := campaign.Run(ctx, engineSpec(s)); err != nil {
			return err
		}
		inproc += time.Since(t0)
	}
	inprocRate := float64(len(d.specs)) / inproc.Seconds()
	m.set("campaignd.overhead_share", "ratio", 1-untraced.throughput()/inprocRate)

	scrape, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	if shards := scrape["campaignd_shards_completed_total"]; shards > 0 {
		m.set("campaignd.checkpoint_bytes_per_shard", "bytes", scrape["campaignd_checkpoint_bytes_total"]/shards)
	}
	m.set("campaignd.shard_retries", "count", scrape["campaignd_shard_retries_total"])
	m.set("campaignd.checkpoint_errors", "count", scrape["campaignd_checkpoint_errors_total"])

	task, ok := campaign.Lookup(daemonTask)
	if !ok {
		return fmt.Errorf("task %q is not registered", daemonTask)
	}
	pool := campaign.NewPool()
	var tasks []float64
	for _, s := range d.specs {
		for k := 0; k < s.Seeds; k++ {
			t0 := time.Now()
			if _, err := task.Run(ctx, rng.StreamSeed(s.BaseSeed, uint64(k)), campaign.Options{Noise: s.Noise, Pool: pool}); err != nil {
				return err
			}
			tasks = append(tasks, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m.set("campaign.task_us_p50", "us", median(tasks))
	return nil
}

// scrape reads the unlabelled samples of the daemon's /metrics page.
func (d *daemonShards) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
