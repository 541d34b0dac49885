package campaign

// Pool is a per-worker reuse cache for expensive task state — enrolled
// devices, attack scratch — keyed by a task/config fingerprint chosen
// by the task. The engine gives every worker goroutine its own Pool for
// the duration of a campaign, so a 10^6-seed sweep re-derives
// manufacturing state once per worker instead of once per seed.
//
// Contract for pooled state: a task must produce bit-identical results
// whether its build function ran fresh or a previous task instance's
// state was adopted (the device layer's Enroll*Reuse functions are the
// canonical implementations), and the fingerprint key must cover every
// config axis the state depends on — a config change must change the
// key. Under that contract campaign results are byte-identical at any
// worker count, pooled or not, which the worker-invariance tests and
// transcript goldens enforce.
//
// A Pool is confined to one worker goroutine; it is not concurrency-
// safe and never shared.
type Pool struct {
	slots map[string]any
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{slots: make(map[string]any)} }

// Get returns the value cached under key, calling build and caching its
// result on a miss. Typical pooled values are pointers to holder
// structs the caller mutates in place across reuses. A nil receiver
// always builds and caches nothing — the unpooled path needs no
// branching at call sites.
func (p *Pool) Get(key string, build func() any) any {
	if p == nil {
		return build()
	}
	if v, ok := p.slots[key]; ok {
		return v
	}
	v := build()
	p.slots[key] = v
	return v
}

// Len reports the number of cached entries (diagnostics and tests).
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.slots)
}
