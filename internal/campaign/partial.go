package campaign

import (
	"sort"

	"repro/internal/stats"
)

// Partial is the campaign's one aggregator: a streaming fold of
// outcomes into per-metric statistics. Each metric gets a Welford
// accumulator plus min/max and binary-success bookkeeping, and Wilson
// intervals are computed at read time (Aggregates), never stored.
//
// Run and the daemon observe outcomes in completion order for progress
// (SSE events, the CLI's -v output); Finalize observes the full outcome
// list in task-index order for the final aggregates, which is what makes
// sharded, resumed, and one-shot runs bit-identical.
//
// Partial is not safe for concurrent use; callers serialize access.
type Partial struct {
	done    int
	binary  map[string]bool
	metrics map[string]*metricPartial
}

// metricPartial accumulates one metric.
type metricPartial struct {
	W         stats.Welford
	Min, Max  float64
	Successes int
	// Binary starts as the task's declaration and is demoted for good
	// the first time a value outside {0, 1} is observed, rather than
	// report a nonsensical proportion.
	Binary bool
}

// NewPartial returns an empty partial for a task whose declared binary
// metrics are `binary` (the Task.Binary list).
func NewPartial(binary []string) *Partial {
	p := &Partial{
		binary:  make(map[string]bool, len(binary)),
		metrics: make(map[string]*metricPartial),
	}
	for _, name := range binary {
		p.binary[name] = true
	}
	return p
}

// Done returns the number of outcomes observed.
func (p *Partial) Done() int { return p.done }

// Observe folds one completed outcome into the partial.
func (p *Partial) Observe(o Outcome) {
	p.done++
	for name, v := range o.Metrics {
		mp, ok := p.metrics[name]
		if !ok {
			mp = &metricPartial{Min: v, Max: v, Binary: p.binary[name]}
			p.metrics[name] = mp
		}
		mp.W.Add(v)
		if v < mp.Min {
			mp.Min = v
		}
		if v > mp.Max {
			mp.Max = v
		}
		switch v {
		case 0:
		case 1:
			mp.Successes++
		default:
			mp.Binary = false
		}
	}
}

// Aggregates summarizes the observed outcomes, one entry per metric in
// sorted name order, computing Wilson intervals at read time. Each
// metric's values are folded in observation order, so observing the
// same outcomes in the same order gives bit-identical aggregates.
func (p *Partial) Aggregates() []Aggregate {
	names := make([]string, 0, len(p.metrics))
	for name := range p.metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	aggs := make([]Aggregate, 0, len(names))
	for _, name := range names {
		mp := p.metrics[name]
		a := Aggregate{
			Metric: name,
			N:      mp.W.N(),
			Mean:   mp.W.Mean(),
			Stddev: mp.W.Stddev(),
			Min:    mp.Min,
			Max:    mp.Max,
			Binary: mp.Binary,
		}
		if a.Binary {
			a.Successes = mp.Successes
			a.WilsonLo, a.WilsonHi = stats.WilsonInterval(a.Successes, a.N, 0.95)
		}
		aggs = append(aggs, a)
	}
	return aggs
}
