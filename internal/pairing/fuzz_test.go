package pairing

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// The pairing helpers arrive from attacker-writable NVM. The fuzz
// targets feed arbitrary bytes to their parsers: a parser must never
// panic, any input it accepts must be exactly what Append writes for
// the parsed value (one encoding per helper), and a parse into a
// destination left over from a longer value must equal the parse into a
// zero value (no stale entry leaks through).

func FuzzUnmarshalSeqPair(f *testing.F) {
	f.Add(SeqPairHelper{Pairs: []Pair{}}.Append(nil))
	f.Add(SeqPairHelper{Pairs: []Pair{{A: 0, B: 5}, {A: 7, B: 2}, {A: 65535, B: 1}}}.Append(nil))
	f.Add([]byte{2, 0, 1, 0, 2, 0}) // count claims more pairs than present
	f.Add([]byte{0, 0, 9})          // trailing byte
	f.Add([]byte{1})                // truncated count
	f.Fuzz(func(t *testing.T, data []byte) {
		var h SeqPairHelper
		err := UnmarshalSeqPairInto(&h, data)
		dirty := SeqPairHelper{Pairs: slices.Repeat([]Pair{{A: -1, B: -1}}, len(h.Pairs)+3)}
		errInto := UnmarshalSeqPairInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("parse into a zero helper error %v, into a used one %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(dirty, h) {
			t.Fatalf("parse into a dirty helper gave %+v, into a zero one %+v", dirty, h)
		}
		if back := h.Append(nil); !bytes.Equal(back, data) {
			t.Fatalf("accepted % x, but the helper encodes as % x", data, back)
		}
	})
}

func FuzzUnmarshalMasking(f *testing.F) {
	f.Add(MaskingHelper{K: 4, Selected: []int{}}.Append(nil))
	f.Add(MaskingHelper{K: 3, Selected: []int{0, 2, 1, 65535}}.Append(nil))
	f.Add([]byte{2, 0, 3, 0, 1, 0}) // count claims more selections than present
	f.Add([]byte{2, 0, 0, 0, 7})    // trailing byte
	f.Add([]byte{2, 0, 1})          // truncated header
	f.Fuzz(func(t *testing.T, data []byte) {
		var h MaskingHelper
		err := UnmarshalMaskingInto(&h, data)
		dirty := MaskingHelper{K: -1, Selected: slices.Repeat([]int{-1}, len(h.Selected)+3)}
		errInto := UnmarshalMaskingInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("parse into a zero helper error %v, into a used one %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(dirty, h) {
			t.Fatalf("parse into a dirty helper gave %+v, into a zero one %+v", dirty, h)
		}
		if back := h.Append(nil); !bytes.Equal(back, data) {
			t.Fatalf("accepted % x, but the helper encodes as % x", data, back)
		}
	})
}
