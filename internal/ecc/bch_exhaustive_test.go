package ecc

import (
	"math/bits"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// TestBCHDecodeExhaustiveSmall checks DecodeInto against a reference
// bounded-distance decoder on every error pattern of weight <= t+1 of
// the small codes the devices use. The reference is a complete
// coset-leader table: bit i of a word is the coefficient of x^i, so a
// word's remainder modulo the generator equals its error pattern's, and
// each remainder of a pattern of weight <= t names that pattern (the
// patterns are unique coset leaders because d >= 2t+1). A received word
// must decode iff its remainder has such a leader, to the word XOR the
// leader, reporting the leader's weight as the corrected count. For
// weight <= t that is the sent codeword; for weight t+1 it is failure or
// a codeword within distance t.
func TestBCHDecodeExhaustiveSmall(t *testing.T) {
	for _, cfg := range []BCHConfig{{M: 5, T: 3}, {M: 5, T: 3, Expurgate: true}} {
		b := MustBCH(cfg)
		t.Run(b.String(), func(t *testing.T) {
			n := b.N()
			gen := uint64(0)
			for i, c := range b.Generator() {
				if c != 0 {
					gen |= 1 << i
				}
			}
			rem := func(w uint64) uint64 {
				deg := bits.Len64(gen) - 1
				for d := n - 1; d >= deg; d-- {
					if w>>d&1 == 1 {
						w ^= gen << (d - deg)
					}
				}
				return w
			}
			// Every pattern of weight <= t+1, in increasing weight.
			var patterns []uint64
			var extend func(from int, w uint64, weight int)
			extend = func(from int, w uint64, weight int) {
				patterns = append(patterns, w)
				if weight == b.T()+1 {
					return
				}
				for i := from; i < n; i++ {
					extend(i+1, w|1<<i, weight+1)
				}
			}
			extend(0, 0, 0)
			leader := make(map[uint64]uint64)
			for _, e := range patterns {
				if bits.OnesCount64(e) > b.T() {
					continue
				}
				r := rem(e)
				if _, dup := leader[r]; dup {
					t.Fatalf("two patterns of weight <= t share remainder %#x", r)
				}
				leader[r] = e
			}

			src := rng.New(31)
			sent := []bitvec.Vector{bitvec.New(n), b.Encode(randMsg(src, b.K()))}
			var ws Workspace
			dst := bitvec.New(n)
			for _, c := range sent {
				cw := toWord(c)
				if rem(cw) != 0 {
					t.Fatalf("sent word %v is not a multiple of the generator", c)
				}
				for _, e := range patterns {
					r := cw ^ e
					corrected, ok := b.DecodeInto(&ws, fromWord(r, n), dst)
					l, want := leader[rem(r)]
					if ok != want {
						t.Fatalf("sent %v error %#x (weight %d): ok=%v, reference %v", c, e, bits.OnesCount64(e), ok, want)
					}
					if !ok {
						continue
					}
					if got := toWord(dst); got != r^l || corrected != bits.OnesCount64(l) {
						t.Fatalf("sent %v error %#x: decoded %#x corrected %d, reference %#x corrected %d",
							c, e, got, corrected, r^l, bits.OnesCount64(l))
					}
					if bits.OnesCount64(e) <= b.T() && r^l != cw {
						t.Fatalf("sent %v error %#x within radius decoded to another codeword", c, e)
					}
				}
			}
			if got, want := len(patterns), exhaustiveCount(n, b.T()+1); got != want {
				t.Fatalf("enumerated %d patterns, want %d", got, want)
			}
		})
	}
}

// exhaustiveCount is sum_{w<=maxW} C(n, w).
func exhaustiveCount(n, maxW int) int {
	total, c := 0, 1
	for w := 0; w <= maxW; w++ {
		total += c
		c = c * (n - w) / (w + 1)
	}
	return total
}

func toWord(v bitvec.Vector) uint64 {
	var w uint64
	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
		w |= 1 << i
	}
	return w
}

func fromWord(w uint64, n int) bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if w>>i&1 == 1 {
			v.Set(i, true)
		}
	}
	return v
}
