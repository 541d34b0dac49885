package distiller

import (
	"bytes"
	"math"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes, standing in for attacker-written
// NVM, to the polynomial parser: it must never panic, any input it
// accepts must be exactly what Append writes for the parsed polynomial
// (one encoding per polynomial, NaN payloads included), and a parse
// into a destination left over from another polynomial must equal the
// parse into a zero value, coefficients compared bit for bit.
func FuzzUnmarshal(f *testing.F) {
	f.Add(NewPoly2D(0).Append(nil))
	f.Add(QuadraticValleyX(3.5, -2).AddInto(Plane(1, math.Inf(1), math.NaN()), nil).Append(nil))
	raw := NewPoly2D(3).Append(nil)
	f.Add(raw[:len(raw)-1])                   // coefficient truncated
	f.Add(append(raw[:len(raw):len(raw)], 0)) // trailing byte
	f.Add([]byte{0xff, 0xff, 1, 2, 3})        // huge degree
	f.Add([]byte{1})                          // truncated degree
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Poly2D
		err := UnmarshalInto(&q, data)
		// A destination left over from a longer polynomial must parse
		// to the same result: no stale coefficient leaks through.
		dirty := NewPoly2D(q.P + 2)
		for i := range dirty.Beta {
			dirty.Beta[i] = math.NaN()
		}
		errInto := UnmarshalInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("parse into a zero polynomial error %v, into a used one %v", err, errInto)
		}
		if err != nil {
			return
		}
		if dirty.P != q.P || len(dirty.Beta) != len(q.Beta) {
			t.Fatalf("parse into a dirty polynomial gave degree %d, into a zero one %d", dirty.P, q.P)
		}
		for i, b := range q.Beta {
			if math.Float64bits(dirty.Beta[i]) != math.Float64bits(b) {
				t.Fatalf("parse into a dirty polynomial changed coefficient %d: %v -> %v", i, b, dirty.Beta[i])
			}
		}
		if back := q.Append(nil); !bytes.Equal(back, data) {
			t.Fatalf("accepted % x, but the polynomial encodes as % x", data, back)
		}
	})
}
