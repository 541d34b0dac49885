package ecc

import (
	"fmt"

	"repro/internal/bitvec"
)

// block composes an inner code over several independent blocks, matching
// the paper's remark that "incoming bits are clustered in blocks, which
// are all error-corrected independently" and that "extension to multiple
// blocks is fairly straightforward". It operates on the concatenation;
// the composite fails as soon as any single block fails. A Sketch holds
// one by value and sets it in Size, so blocks is at least 1 and inner is
// never itself a block (nesting would re-enter the per-block workspace
// buffers).
type block struct {
	inner  Code
	blocks int
}

// N returns blocks * inner.N().
func (b *block) N() int { return b.blocks * b.inner.N() }

// K returns blocks * inner.K().
func (b *block) K() int { return b.blocks * b.inner.K() }

// T returns the per-block correction radius. Note this is NOT a global
// radius: t+1 errors concentrated in one block fail while blocks*t errors
// spread evenly succeed. The attacks exploit exactly this distinction, so
// the semantics are per-block by design.
func (b *block) T() int { return b.inner.T() }

// EncodeInto encodes block by block: each K-bit message slice is
// extracted into a workspace buffer, encoded by the inner code's
// EncodeInto, and written back into dst word-level.
func (b *block) EncodeInto(ws *Workspace, msg, dst bitvec.Vector) {
	checkLen("message", msg.Len(), b.K())
	checkLen("encode buffer", dst.Len(), b.N())
	ik, in := b.inner.K(), b.inner.N()
	m := resize(&ws.blockMsg, ik)
	out := resize(&ws.blockOut, in)
	for i := 0; i < b.blocks; i++ {
		msg.SliceInto(i*ik, (i+1)*ik, m)
		b.inner.EncodeInto(ws, m, out)
		dst.PutAt(i*in, out)
	}
}

// DecodeInto decodes block by block: each inner block is sliced into a
// workspace buffer, decoded by the inner code's DecodeInto, and written
// back into dst word-level. corrected sums over blocks and ok is the
// conjunction of per-block outcomes; a failed block contributes its
// received bits to dst and decoding continues, so the total correction
// count stays meaningful. A block whose coset the inner code has met
// before costs its syndromes and a cache read (see BCH.DecodeInto).
func (b *block) DecodeInto(ws *Workspace, received, dst bitvec.Vector) (int, bool) {
	checkLen("received word", received.Len(), b.N())
	checkLen("decode buffer", dst.Len(), b.N())
	in := b.inner.N()
	recv := resize(&ws.blockRecv, in)
	out := resize(&ws.blockOut, in)
	total := 0
	allOK := true
	for i := 0; i < b.blocks; i++ {
		received.SliceInto(i*in, (i+1)*in, recv)
		corrected, ok := b.inner.DecodeInto(ws, recv, out)
		dst.PutAt(i*in, out)
		total += corrected
		allOK = allOK && ok
	}
	return total, allOK
}

// String implements fmt.Stringer.
func (b *block) String() string {
	return fmt.Sprintf("%d x %s", b.blocks, b.inner)
}
