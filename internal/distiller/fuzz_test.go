package distiller

import (
	"math"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes, standing in for attacker-written
// NVM, to the polynomial parser: it must never panic, and any input it
// accepts must re-marshal to bytes that decode to an equal polynomial,
// coefficients compared bit for bit so that NaN payloads count; so must
// a parse into a destination left over from another polynomial.
func FuzzUnmarshal(f *testing.F) {
	f.Add(NewPoly2D(0).Marshal())
	f.Add(QuadraticValleyX(3.5, -2).AddInto(Plane(1, math.Inf(1), math.NaN()), nil).Marshal())
	raw := NewPoly2D(3).Marshal()
	f.Add(raw[:len(raw)-1])                   // coefficient truncated
	f.Add(append(raw[:len(raw):len(raw)], 0)) // trailing byte
	f.Add([]byte{0xff, 0xff, 1, 2, 3})        // huge degree
	f.Add([]byte{1})                          // truncated degree
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Unmarshal(data)
		// A destination left over from a longer polynomial must parse
		// to the fresh result: no stale coefficient leaks through.
		dirty := NewPoly2D(q.P + 2)
		for i := range dirty.Beta {
			dirty.Beta[i] = math.NaN()
		}
		errInto := UnmarshalInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("fresh parse error %v, parse-into error %v", err, errInto)
		}
		if err != nil {
			return
		}
		if dirty.P != q.P || len(dirty.Beta) != len(q.Beta) {
			t.Fatalf("parse into a dirty polynomial gave degree %d, fresh parse %d", dirty.P, q.P)
		}
		for i, b := range q.Beta {
			if math.Float64bits(dirty.Beta[i]) != math.Float64bits(b) {
				t.Fatalf("parse into a dirty polynomial changed coefficient %d: %v -> %v", i, b, dirty.Beta[i])
			}
		}
		back, err := Unmarshal(q.Marshal())
		if err != nil {
			t.Fatalf("re-marshaled polynomial rejected: %v", err)
		}
		if back.P != q.P || len(back.Beta) != len(q.Beta) {
			t.Fatalf("round trip changed the degree: %d -> %d", q.P, back.P)
		}
		for i, b := range q.Beta {
			if math.Float64bits(back.Beta[i]) != math.Float64bits(b) {
				t.Fatalf("round trip changed coefficient %d: %v -> %v", i, b, back.Beta[i])
			}
		}
	})
}
