package tempco

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/pairing"
)

// sameHelper reports whether two helpers are equal field by field, the
// crossover bounds compared bit for bit so that NaN payloads count.
func sameHelper(a, b Helper) bool {
	if len(a.Pairs) != len(b.Pairs) || !a.Offset.Equal(b.Offset) {
		return false
	}
	for i, p := range a.Pairs {
		q := b.Pairs[i]
		if p.Pair != q.Pair || p.Class != q.Class || p.MaskIdx != q.MaskIdx || p.HelpIdx != q.HelpIdx ||
			math.Float64bits(p.Tl) != math.Float64bits(q.Tl) || math.Float64bits(p.Th) != math.Float64bits(q.Th) {
			return false
		}
	}
	return true
}

// FuzzUnmarshalHelper feeds arbitrary bytes, standing in for
// attacker-written NVM, to the helper parser: it must never panic, any
// input it accepts must be exactly what Append writes for the parsed
// helper (one encoding per helper: no trailing byte, no stray offset
// bit), and a parse into a used destination must equal the parse into
// a zero value.
func FuzzUnmarshalHelper(f *testing.F) {
	valid := Helper{
		Pairs: []PairInfo{
			{Pair: pairing.Pair{A: 0, B: 3}, Class: Good, MaskIdx: -1, HelpIdx: -1},
			{Pair: pairing.Pair{A: 5, B: 1}, Class: Cooperating, Tl: 12.5, Th: 40, MaskIdx: 0, HelpIdx: 2},
			{Pair: pairing.Pair{A: 2, B: 4}, Class: Bad, Tl: math.NaN(), Th: math.Inf(-1), MaskIdx: -1, HelpIdx: -1},
		},
		Offset: bitvec.MustFromString("1011001110001"),
	}
	f.Add(valid.Append(nil))
	f.Add(Helper{Offset: bitvec.New(0)}.Append(nil))
	raw := valid.Append(nil)
	f.Add(raw[:len(raw)-1])                      // offset truncated
	f.Add(append(raw[:len(raw):len(raw)], 0xff)) // trailing byte
	f.Add([]byte{9, 0, 1, 2, 3})                 // count claims more pairs than present
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff})  // huge offset length
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Helper
		err := UnmarshalHelperInto(&h, data)
		// A destination left over from a longer helper must parse to the
		// same result: no stale record or offset word leaks through.
		dirty := Helper{Offset: bitvec.Ones(h.Offset.Len() + 70)}
		for range len(h.Pairs) + 3 {
			dirty.Pairs = append(dirty.Pairs, PairInfo{Pair: pairing.Pair{A: -1, B: -1}, Class: Cooperating,
				Tl: math.NaN(), Th: math.NaN(), MaskIdx: -2, HelpIdx: -2})
		}
		errInto := UnmarshalHelperInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("parse into a zero helper error %v, into a used one %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !sameHelper(dirty, h) || dirty.Offset.Weight() != h.Offset.Weight() {
			t.Fatalf("parse into a dirty helper gave %+v, into a zero one %+v", dirty, h)
		}
		if back := h.Append(nil); !bytes.Equal(back, data) {
			t.Fatalf("accepted % x, but the helper encodes as % x", data, back)
		}
	})
}
