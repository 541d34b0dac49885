package attack

import (
	"sync"
	"sync/atomic"
)

// planTable interns immutable decision plans, as ecc.NewBCH interns
// codes and distiller.Fit its solvers. A groupbased, masking or chain
// decision injects a pattern, and the first two rewrite the layout and
// force every bit but the target's; all of that is a function of the
// array geometry and the decision's target, never of the device. So
// every run of one geometry (campaign workers included) shares one
// plan per target. The first decision that needs a plan builds it (a
// groupbased plan's level plane and attacker partition included);
// every later decision only loads it.
//
// A table holds one slot set per key K (the geometry, plus masking's
// k), created at the key's first use; the caller loads it once per
// run, since a struct key boxed into the map's Load allocates. A slot
// set holds one atomic pointer per target, so it is bounded by the
// number of targets, and a lookup that hits allocates nothing.
type planTable[K comparable, P any] struct {
	m sync.Map // K -> *planSlots[P]
}

// planSlots are one key's plans, indexed by target.
type planSlots[P any] struct {
	plans []atomic.Pointer[P]
}

// slots returns key's slot set of n targets, creating it on first use.
func (t *planTable[K, P]) slots(key K, n int) *planSlots[P] {
	if s, ok := t.m.Load(key); ok {
		return s.(*planSlots[P])
	}
	s, _ := t.m.LoadOrStore(key, &planSlots[P]{plans: make([]atomic.Pointer[P], n)})
	return s.(*planSlots[P])
}

// get returns target i's plan, running build on its first use. Racing
// first uses may each build it; the first to publish wins and every
// caller returns that one. build is only called, never retained.
func (s *planSlots[P]) get(i int, build func() *P) *P {
	if p := s.plans[i].Load(); p != nil {
		return p
	}
	s.plans[i].CompareAndSwap(nil, build())
	return s.plans[i].Load()
}
