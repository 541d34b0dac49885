package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/helperdata"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the index of the enclosing span (-1 for the request).
type span struct {
	name       string
	req        int32
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// keepRequests is how many requests' spans a traced run keeps for the
// trace file; every request's spans feed the aggregates.
const keepRequests = 200

// tracer records spans in memory. When a request's last span closes, its
// spans are folded into per-layer aggregates and, for the first
// keepRequests requests, kept for write. It serves one goroutine. A nil
// *tracer records nothing, so the untraced path runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	req   int32
	phase int32 // open attack phase span, -1 if none
	first int   // index of the current request's first span

	// aggregates over every traced request
	requests int
	reqTime  int64
	self     map[string]int64     // self time per layer, ns
	counts   map[string]int       // spans per name
	durs     map[string][]float64 // durations of timedCalls spans, us
	gaps     []float64            // daemon SSE inter-event gaps, ms
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), req: -1, phase: -1,
		self: map[string]int64{}, counts: map[string]int{}, durs: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	if name == "request" {
		t.req++
		t.first = len(t.spans)
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.open = t.open[:len(t.open)-1]
	if len(t.open) == 0 {
		t.fold()
	}
}

// timedCalls are the spans whose p50 duration is reported.
var timedCalls = map[string]bool{
	"device.enroll": true, "device.query": true, "device.write": true, "campaignd.submit": true,
}

// fold adds the finished request's spans to the aggregates. A span's
// self time is its duration minus its direct children's (children never
// overlap: one goroutine).
func (t *tracer) fold() {
	spans := t.spans[t.first:]
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if p := int(s.parent) - t.first; s.parent >= 0 {
			self[p] -= d
		}
	}
	for i, s := range spans {
		t.self[layerOf(s.name)] += self[i]
		t.counts[s.name]++
		if timedCalls[s.name] {
			t.durs[s.name] = append(t.durs[s.name], float64(s.end-s.start)/1e3)
		}
		if s.name == "request" {
			t.requests++
			t.reqTime += s.end - s.start
		}
	}
	if int(t.req) >= keepRequests {
		t.spans = t.spans[:t.first]
	}
}

// progress turns attack.Options.Progress notifications into phase spans:
// a notification naming a new phase closes the open phase span and
// opens the next; endPhase closes the last one when the attack returns.
func (t *tracer) progress() func(attack.Progress) {
	if t == nil {
		return nil
	}
	current := ""
	return func(p attack.Progress) {
		if p.Phase == current {
			return
		}
		t.endPhase()
		current = p.Phase
		t.phase = t.begin("attack.phase." + p.Phase)
	}
}

func (t *tracer) endPhase() {
	if t == nil || t.phase < 0 {
		return
	}
	t.end(t.phase)
	t.phase = -1
}

// wrap returns target with its NVM and oracle calls timed. The wrapper
// keeps the KeyBinder capability of the device adapter, which the
// attacks probe for.
func (t *tracer) wrap(target attack.Target) attack.Target {
	if t == nil {
		return target
	}
	tt := &timedTarget{inner: target, tr: t}
	if kb, ok := target.(attack.KeyBinder); ok {
		return &timedBinder{timedTarget: tt, kb: kb}
	}
	return tt
}

type timedTarget struct {
	inner attack.Target
	tr    *tracer
}

func (t *timedTarget) Spec() attack.Spec { return t.inner.Spec() }
func (t *timedTarget) Queries() int      { return t.inner.Queries() }

func (t *timedTarget) ReadImage() (*helperdata.Image, error) {
	id := t.tr.begin("device.read")
	im, err := t.inner.ReadImage()
	t.tr.end(id)
	return im, err
}

func (t *timedTarget) WriteImage(im *helperdata.Image) error {
	id := t.tr.begin("device.write")
	err := t.inner.WriteImage(im)
	t.tr.end(id)
	return err
}

func (t *timedTarget) Query() bool {
	id := t.tr.begin("device.query")
	fail := t.inner.Query()
	t.tr.end(id)
	return fail
}

type timedBinder struct {
	*timedTarget
	kb attack.KeyBinder
}

func (t *timedBinder) BindKey(key bitvec.Vector) { t.kb.BindKey(key) }

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	if name == "attack.run" || strings.HasPrefix(name, "attack.phase.") {
		return "attack"
	}
	return name
}

// layers sets the span-derived per-layer metrics: per-layer self-time
// shares of request time (which add up to 1 with trace.unexplained_share,
// the requests' own self time), call counts per request and p50 call
// latencies.
func (t *tracer) layers(m metrics) {
	if t.requests == 0 || t.reqTime == 0 {
		return
	}
	share := func(layer string) float64 { return float64(t.self[layer]) / float64(t.reqTime) }
	m.set("trace.unexplained_share", "ratio", share("request"))
	for _, l := range []string{"device.enroll", "device.query", "device.write", "device.read"} {
		if t.counts[l] == 0 {
			continue
		}
		m.set(l+"_share", "ratio", share(l))
		if l != "device.read" {
			m.set(l+"_us_p50", "us", median(t.durs[l]))
		}
		if l != "device.enroll" {
			m.set(l+"_count", "count", float64(t.counts[l])/float64(t.requests))
		}
	}
	if t.counts["attack.run"] > 0 {
		m.set("attack.self_share", "ratio", share("attack"))
		if q := t.counts["device.query"]; q > 0 {
			m.set("attack.self_us_per_query", "us", float64(t.self["attack"])/1e3/float64(q))
		}
	}
}

// traceEvent is one Chrome trace-event-format record ("X" = complete
// event), viewable in Perfetto or chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps the kept spans as a Chrome trace-event JSON file under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, "{\"traceEvents\":[\n")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		ev := traceEvent{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1, Args: map[string]any{"req": s.req, "parent": s.parent}}
		if err := enc.Encode(ev); err != nil {
			return "", err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
