package tempco

import (
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
// attacker-written NVM, to the helper parser: it must never panic, and
// any input it accepts must re-marshal to bytes that decode to an equal
// helper.
func FuzzUnmarshalHelper(f *testing.F) {
	valid := Helper{
		Pairs: []PairInfo{
			{Pair: pairing.Pair{A: 0, B: 3}, Class: Good, MaskIdx: -1, HelpIdx: -1},
			{Pair: pairing.Pair{A: 5, B: 1}, Class: Cooperating, Tl: 12.5, Th: 40, MaskIdx: 0, HelpIdx: 2},
			{Pair: pairing.Pair{A: 2, B: 4}, Class: Bad, Tl: math.NaN(), Th: math.Inf(-1), MaskIdx: -1, HelpIdx: -1},
		},
		Offset: bitvec.MustFromString("1011001110001"),
	}
	f.Add(valid.Marshal())
	f.Add(Helper{Offset: bitvec.New(0)}.Marshal())
	raw := valid.Marshal()
	f.Add(raw[:len(raw)-1])                      // offset truncated
	f.Add(append(raw[:len(raw):len(raw)], 0xff)) // trailing byte
	f.Add([]byte{9, 0, 1, 2, 3})                 // count claims more pairs than present
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff})  // huge offset length
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalHelper(data)
		if err != nil {
			return
		}
		back, err := UnmarshalHelper(h.Marshal())
		if err != nil {
			t.Fatalf("re-marshaled helper rejected: %v", err)
		}
		if !sameHelper(back, h) {
			t.Fatalf("round trip changed the helper: %+v -> %+v", h, back)
		}
	})
}
