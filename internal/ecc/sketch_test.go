package ecc

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestSketchTable runs the sketch over every code family at stream
// lengths 0, 1, N-1, N, N+1 and 3N. It checks the padding rule
// (max(1, ⌈len/N⌉) blocks), that enrollment then reproduction
// round-trips with t errors in every block, that t+1 errors in one
// block do not (a BCH decoder flags or miscorrects, a perfect or
// repetition code always miscorrects), and the offline consistency
// check the sequential-pairing attack's ¬K step relies on: a code
// containing the all-ones word accepts both a candidate and its
// complement, the expurgated BCH code only the candidate.
func TestSketchTable(t *testing.T) {
	for _, c := range []struct {
		code       Code
		expurgated bool
		perfect    bool // never flags a failure
	}{
		{NewRepetition(3), false, true},
		{NewGolay(), false, true},
		{MustBCH(BCHConfig{M: 5, T: 3}), false, false},
		{MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}), true, false},
		{MustBCH(BCHConfig{M: 6, T: 3}), false, false},
	} {
		n, tt := c.code.N(), c.code.T()
		for _, streamLen := range []int{0, 1, n - 1, n, n + 1, 3 * n} {
			t.Run(fmt.Sprintf("%s/len=%d", c.code, streamLen), func(t *testing.T) {
				src := rng.New(uint64(7*n + streamLen))
				var sk Sketch
				sk.Size(c.code, streamLen)
				blocks := max(1, (streamLen+n-1)/n)
				if sk.Blocks() != blocks || sk.Len() != blocks*n {
					t.Fatalf("sized to %d blocks, %d bits; want %d, %d", sk.Blocks(), sk.Len(), blocks, blocks*n)
				}
				resp := randMsg(src, streamLen)
				enrolled := sk.Stream()
				enrolled.PutAt(0, resp)
				enrolled = enrolled.Clone()
				off := sk.Enroll(src).Clone()

				// t errors in every block, spread over the block.
				noisy := enrolled.Clone()
				for b := 0; b < blocks; b++ {
					for e := 0; e < tt; e++ {
						noisy.Flip(b*n + e*(n/tt))
					}
				}
				rec, corrected, ok := reproduceFrom(&sk, off, noisy)
				if !ok || corrected != blocks*tt || !rec.Equal(enrolled) {
					t.Fatalf("t errors per block: ok=%v corrected=%d (want %d) recovered=%v",
						ok, corrected, blocks*tt, rec.Equal(enrolled))
				}

				// t+1 errors in the last block.
				beyond := enrolled.Clone()
				for e := 0; e <= tt; e++ {
					beyond.Flip((blocks-1)*n + e)
				}
				rec, _, ok = reproduceFrom(&sk, off, beyond)
				if ok && rec.Equal(enrolled) {
					t.Fatal("t+1 errors in one block recovered the enrolled stream")
				}
				if c.perfect && !ok {
					t.Fatal("a code that always decodes flagged a failure")
				}

				if !consistent(&sk, off, enrolled) {
					t.Fatal("the enrolled stream is not consistent with its offset")
				}
				if got := consistent(&sk, off, enrolled.Not()); got == c.expurgated {
					t.Fatalf("complement consistent=%v, want %v", got, !c.expurgated)
				}
			})
		}
	}
}
