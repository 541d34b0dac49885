package bitvec

import "testing"

// FuzzUnmarshalVector feeds arbitrary bytes, standing in for
// attacker-written NVM, to the code-offset parser: it must never panic,
// any input it accepts must re-marshal to bytes that parse to an equal
// vector, and parsing into a destination left over from a longer,
// all-ones vector must give the fresh parse — no stale word or tail bit
// leaks through the reuse.
func FuzzUnmarshalVector(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		raw, _ := Ones(n).MarshalBinary()
		f.Add(raw)
	}
	raw, _ := FromBytes([]byte{0xa5, 0x3c, 0xff}, 20)
	good, _ := raw.MarshalBinary()
	f.Add(good)
	f.Add(good[:len(good)-1])                    // data truncated
	f.Add(append(good[:len(good):len(good)], 0)) // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})     // huge declared length
	f.Add([]byte{1, 0, 0, 0, 0xfe})              // stray bits beyond n
	f.Add([]byte{1, 0})                          // truncated header
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := UnmarshalVector(data)
		dirty := Ones(v.Len() + 70)
		errInto := UnmarshalVectorInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("fresh parse error %v, parse-into error %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !dirty.Equal(v) || dirty.Weight() != v.Weight() {
			t.Fatalf("parse into a dirty vector gave %v, fresh parse %v", dirty, v)
		}
		back, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted vector fails to marshal: %v", err)
		}
		again, err := UnmarshalVector(back)
		if err != nil {
			t.Fatalf("re-marshaled vector rejected: %v", err)
		}
		if !again.Equal(v) {
			t.Fatalf("round trip changed the vector: %v -> %v", v, again)
		}
	})
}
