package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/tempco"
	"repro/internal/transcript"
)

const (
	attackMixRequests = 2000 // attacks per pass, round-robin over the five
	attackMixWarmup   = 25   // cold-start requests, five per attack
	attackMixStride   = 97   // every 97th request (coprime with 5) is cross-checked
)

// attackMix runs one (attack, seed) per request through
// experiments.RunAttackPooled with one campaign.Pool: the query-bound
// workload (SPRT loop, noise fill, BCH decode), mixing query-heavy
// attacks (seqpair, groupbased) with helper-write-heavy ones (masking,
// chain).
type attackMix struct {
	specs []transcript.Spec
	ref   map[int]string // sampled reference digests
	pool  *campaign.Pool
	fleet *carcasses // enrollment state of the recomposed (traced) path
}

// newAttackMix derives the request list from seed. Device seeds are
// consecutive streams of seed; a tempco device whose helper has fewer
// than the three cooperating pairs the tempco attack requires is
// skipped, since the attack documents it as out of scope.
func newAttackMix(seed uint64) *attackMix {
	a := &attackMix{specs: make([]transcript.Spec, attackMixRequests)}
	gen := newCarcasses()
	next := uint64(0)
	for i := range a.specs {
		name := constructions[i%len(constructions)]
		for {
			s := rng.StreamSeed(seed, next)
			next++
			if name != "tempco" || tempcoApplicable(gen, s) {
				a.specs[i] = transcript.Spec{Attack: name, Seed: s, Noise: "counter", Expurgate: name == "seqpair"}
				break
			}
		}
	}
	return a
}

// tempcoApplicable reports whether the tempco device of seed has at
// least three cooperating pairs. An enrollment error keeps the seed, so
// the failure shows in the measured run.
func tempcoApplicable(gen *carcasses, seed uint64) bool {
	if _, err := gen.enroll("tempco", seed); err != nil {
		return true
	}
	coop := 0
	for _, p := range gen.tempco.HelperView().Pairs {
		if p.Class == tempco.Cooperating {
			coop++
		}
	}
	return coop >= 3
}

func (a *attackMix) size() int { return len(a.specs) }

func (a *attackMix) listDigest() string {
	blob, _ := json.Marshal(a.specs) // plain structs: cannot fail
	return digestOf(blob)
}

// reference recomposes a sample of requests from the device, adapter
// and attack layers (untraced) for comparison with RunAttackPooled.
func (a *attackMix) reference(ctx context.Context) (map[int]string, error) {
	fleet := newCarcasses()
	ref := map[int]string{}
	for i := range a.specs {
		if i >= len(constructions) && i%attackMixStride != 0 {
			continue
		}
		tr, err := recompose(ctx, fleet, a.specs[i], nil)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		if ref[i], err = transcriptDigest(tr); err != nil {
			return nil, err
		}
	}
	a.ref = ref
	return ref, nil
}

// start is a cold start: an empty pool (so the warm-up requests build
// fresh ECC tables and make the first enrollments) and recomposition
// state.
func (a *attackMix) start(context.Context) error {
	a.pool = campaign.NewPool()
	a.fleet = newCarcasses()
	return nil
}

func (a *attackMix) warmup() int { return attackMixWarmup }

func (a *attackMix) request(ctx context.Context, i int) (outcome, error) {
	tr, err := experiments.RunAttackPooled(ctx, a.specs[i], a.pool)
	if err != nil {
		return outcome{}, err
	}
	return transcriptOutcome(tr)
}

// traced recomposes request i with spans; its transcript must equal
// RunAttackPooled's exactly (checked against the untraced passes).
func (a *attackMix) traced(ctx context.Context, i int, t *tracer) (outcome, error) {
	tr, err := recompose(ctx, a.fleet, a.specs[i], t)
	if err != nil {
		return outcome{}, err
	}
	return transcriptOutcome(tr)
}

// layers reports the pool's hit ratio and slot count over a cold start
// and one pass of the list through the counting cache.
func (a *attackMix) layers(ctx context.Context, _ *passResult, _ *tracer, m metrics) error {
	pool := campaign.NewPool()
	cache := &countingCache{pool: pool}
	for i, spec := range a.specs {
		tr, err := transcript.RunWith(ctx, spec, cache)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if want, ok := a.ref[i]; ok {
			if got, err := transcriptDigest(tr); err != nil || got != want {
				return fmt.Errorf("request %d: counting-cache transcript differs from the reference", i)
			}
		}
	}
	m.set("campaign.pool_hit_ratio", "ratio", ratio(cache.hits, cache.hits+cache.misses))
	m.set("campaign.pool_slots", "count", float64(pool.Len()))
	return nil
}

func (a *attackMix) close() error { return nil }

// countingCache is a transcript.Cache over a campaign.Pool that counts
// hits and misses.
type countingCache struct {
	pool         *campaign.Pool
	hits, misses int
}

func (c *countingCache) Get(key string, build func() any) any {
	hit := true
	v := c.pool.Get(key, func() any { hit = false; return build() })
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return v
}

// recompose runs one transcript spec the way transcript.RunWith does,
// but from the public device, adapter and attack layers, so each layer
// boundary can carry a span: request → device.enroll → attack.run
// (→ attack.phase.*) → device.query / device.write / device.read.
func recompose(ctx context.Context, fleet *carcasses, spec transcript.Spec, t *tracer) (transcript.Transcript, error) {
	req := t.begin("request")
	defer t.end(req)
	en := t.begin("device.enroll")
	e, err := fleet.enroll(spec.Attack, spec.Seed)
	t.end(en)
	if err != nil {
		return transcript.Transcript{}, err
	}
	run := t.begin("attack.run")
	rep, err := attack.Run(ctx, spec.Attack, t.wrap(e.target),
		attack.Options{Dist: attack.DefaultDistinguisher(), Progress: t.progress()})
	t.endPhase()
	t.end(run)
	if err != nil {
		return transcript.Transcript{}, err
	}
	truth := e.truth.String()
	tr := transcript.Transcript{
		Spec:              spec,
		EnrolledKeyBits:   len(truth),
		EnrolledKeyDigest: digestOf([]byte(truth)),
		Key:               rep.Key.String(),
		Ambiguous:         rep.Ambiguous,
		Queries:           rep.Queries,
		Phases:            make([]transcript.PhaseCost, 0, len(rep.Phases)),
	}
	for _, ph := range rep.Phases {
		tr.Phases = append(tr.Phases, transcript.PhaseCost{Name: ph.Name, Queries: ph.Queries})
	}
	tr.Recovered = tr.Key != "" && tr.Key == truth
	e.score(rep, &tr)
	return tr, nil
}

func transcriptDigest(tr transcript.Transcript) (string, error) {
	blob, err := json.Marshal(tr)
	if err != nil {
		return "", err
	}
	return digestOf(blob), nil
}

func transcriptOutcome(tr transcript.Transcript) (outcome, error) {
	d, err := transcriptDigest(tr)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{ops: 1, queries: tr.Queries, digest: d}
	if tr.Recovered {
		o.recovered = 1
	}
	return o, nil
}
