package bitvec

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalVector feeds arbitrary bytes, standing in for
// attacker-written NVM, to the code-offset parser: it must never panic,
// any input it accepts must be exactly what Append writes for the parsed
// vector (one encoding per vector: no trailing byte, no stray bit past
// the length), and parsing into a destination left over from a longer,
// all-ones vector must give the parse into a zero value — no stale word
// or tail bit leaks through the reuse.
func FuzzUnmarshalVector(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		f.Add(Ones(n).Append(nil))
	}
	good := MustFromString("10100101001111001111").Append(nil)
	f.Add(good)
	f.Add(good[:len(good)-1])                    // data truncated
	f.Add(append(good[:len(good):len(good)], 0)) // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})     // huge declared length
	f.Add([]byte{1, 0, 0, 0, 0xfe})              // stray bits beyond n
	f.Add([]byte{1, 0})                          // truncated header
	f.Add([]byte{12, 0, 0, 0, 0xff, 0x1f})       // one stray bit beyond n
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Vector
		err := UnmarshalVectorInto(&v, data)
		dirty := Ones(v.Len() + 70)
		errInto := UnmarshalVectorInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("parse into a zero vector error %v, into a used one %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !dirty.Equal(v) || dirty.Weight() != v.Weight() {
			t.Fatalf("parse into a dirty vector gave %v, into a zero one %v", dirty, v)
		}
		if back := v.Append(nil); !bytes.Equal(back, data) {
			t.Fatalf("accepted % x, but the vector encodes as % x", data, back)
		}
	})
}
