package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/rng"
	"repro/internal/transcript"
)

const (
	enrollRequests = 2000           // enrollments per pass, round-robin over the five constructions
	enrollWarmup   = enrollRequests // cold-start requests: one full pass
	enrollStride   = 131            // every 131st request (coprime with 5) is cross-checked
)

// enrollOnly manufactures and enrolls one canonical device per request
// through device.Enroll*Reuse, one carcass per construction, then
// reconstructs its key once, as a device does at power-up. It bypasses
// the attack layer and the SPRT loop: their gains must read flat here,
// while manufacture, averaged measurement and enrollment changes show.
type enrollOnly struct {
	seeds []uint64
	fleet *carcasses
}

func newEnrollOnly(seed uint64) *enrollOnly {
	e := &enrollOnly{seeds: make([]uint64, enrollRequests)}
	for i := range e.seeds {
		e.seeds[i] = rng.StreamSeed(seed, uint64(i))
	}
	return e
}

func (e *enrollOnly) size() int { return len(e.seeds) }

func (e *enrollOnly) listDigest() string {
	blob, _ := json.Marshal(e.seeds) // []uint64: cannot fail
	return digestOf(blob)
}

func (e *enrollOnly) spec(i int) transcript.Spec {
	name := constructions[i%len(constructions)]
	return transcript.Spec{Attack: name, Seed: e.seeds[i], Noise: "counter", Expurgate: name == "seqpair"}
}

// reference takes the enrolled-key digest of a sample of requests from
// transcript.Run, the repository's determinism contract.
func (e *enrollOnly) reference(ctx context.Context) (map[int]string, error) {
	ref := map[int]string{}
	for i := range e.seeds {
		if i >= len(constructions) && i%enrollStride != 0 {
			continue
		}
		tr, err := transcript.Run(ctx, e.spec(i))
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		ref[i] = tr.EnrolledKeyDigest
	}
	return ref, nil
}

// start is a cold start: no carcasses and no ECC tables.
func (e *enrollOnly) start(context.Context) error {
	e.fleet = newCarcasses()
	return nil
}

func (e *enrollOnly) warmup() int { return enrollWarmup }

func (e *enrollOnly) request(ctx context.Context, i int) (outcome, error) {
	return e.traced(ctx, i, nil)
}

func (e *enrollOnly) traced(_ context.Context, i int, t *tracer) (outcome, error) {
	req := t.begin("request")
	en := t.begin("device.enroll")
	d, err := e.fleet.enroll(constructions[i%len(constructions)], e.seeds[i])
	t.end(en)
	if err != nil {
		t.end(req)
		return outcome{}, err
	}
	q := t.begin("device.query")
	ok := d.app()
	t.end(q)
	t.end(req)
	o := outcome{ops: 1, queries: 1, digest: digestOf([]byte(d.truth.String()))}
	if ok {
		o.recovered = 1
	}
	return o, nil
}

func (e *enrollOnly) layers(context.Context, *passResult, *tracer, metrics) error { return nil }

func (e *enrollOnly) close() error { return nil }
