package ecc

import (
	"fmt"

	"repro/internal/bitvec"
)

// Block composes an inner code over several independent blocks, matching
// the paper's remark that "incoming bits are clustered in blocks, which
// are all error-corrected independently" and that "extension to multiple
// blocks is fairly straightforward". Encode/Decode operate on the
// concatenation; the composite fails as soon as any single block fails.
type Block struct {
	inner  Code
	blocks int
}

// NewBlock wraps inner over the given number of blocks. It panics if
// blocks < 1, a construction-time programming error, and rejects a Block
// inner code (nesting would re-enter the per-block workspace buffers).
func NewBlock(inner Code, blocks int) *Block {
	if blocks < 1 {
		panic("ecc: block count must be at least 1")
	}
	if _, nested := inner.(*Block); nested {
		panic("ecc: Block cannot nest another Block")
	}
	return &Block{inner: inner, blocks: blocks}
}

// Inner returns the per-block code.
func (b *Block) Inner() Code { return b.inner }

// N returns blocks * inner.N().
func (b *Block) N() int { return b.blocks * b.inner.N() }

// K returns blocks * inner.K().
func (b *Block) K() int { return b.blocks * b.inner.K() }

// T returns the per-block correction radius. Note this is NOT a global
// radius: t+1 errors concentrated in one block fail while blocks*t errors
// spread evenly succeed. The attacks exploit exactly this distinction, so
// the semantics are per-block by design.
func (b *Block) T() int { return b.inner.T() }

// Encode encodes each K-bit slice independently and concatenates.
func (b *Block) Encode(msg bitvec.Vector) bitvec.Vector {
	checkLen("message", msg.Len(), b.K())
	out := bitvec.New(0)
	ik := b.inner.K()
	for i := 0; i < b.blocks; i++ {
		out = out.Concat(b.inner.Encode(msg.Slice(i*ik, (i+1)*ik)))
	}
	return out
}

// EncodeInto encodes block by block: each K-bit message slice is
// extracted into a workspace buffer, encoded by the inner code's
// EncodeInto, and written back into dst word-level.
func (b *Block) EncodeInto(ws *Workspace, msg, dst bitvec.Vector) {
	checkLen("message", msg.Len(), b.K())
	checkLen("encode buffer", dst.Len(), b.N())
	ik, in := b.inner.K(), b.inner.N()
	m := ws.vec(&ws.blockMsg, ik)
	out := ws.vec(&ws.blockOut, in)
	for i := 0; i < b.blocks; i++ {
		msg.SliceInto(i*ik, (i+1)*ik, m)
		b.inner.EncodeInto(ws, m, out)
		dst.PutAt(i*in, out)
	}
}

// Decode decodes each block independently. corrected sums over blocks; ok
// is the conjunction of per-block outcomes (decoding continues past a
// failed block so the total correction count stays meaningful).
func (b *Block) Decode(received bitvec.Vector) (bitvec.Vector, int, bool) {
	var ws Workspace
	out := bitvec.New(b.N())
	total, allOK := b.DecodeInto(&ws, received, out)
	return out, total, allOK
}

// DecodeInto decodes block by block: each inner block is sliced into a
// workspace buffer, decoded by the inner code's DecodeInto, and written
// back into dst word-level. As in Decode, a failed block contributes its
// received bits to dst and decoding continues.
//
// The inner decode is skipped for a block whose word equals the last
// word the workspace decoded at the same block index under the same
// inner code: the stored output word and (corrected, ok) are used
// instead. A decode is a pure function of (inner code, word), so the
// result is bit-identical with or without the memo; the attacks' SPRT
// re-asks the same helper image until it decides, which is why most
// blocks repeat. See Workspace for the storage.
func (b *Block) DecodeInto(ws *Workspace, received, dst bitvec.Vector) (int, bool) {
	checkLen("received word", received.Len(), b.N())
	checkLen("decode buffer", dst.Len(), b.N())
	in := b.inner.N()
	recv := ws.vec(&ws.blockRecv, in)
	out := ws.vec(&ws.blockOut, in)
	memo := ws.memo.prepare(b)
	total := 0
	allOK := true
	for i := 0; i < b.blocks; i++ {
		received.SliceInto(i*in, (i+1)*in, recv)
		corrected, ok, hit := memo.get(i, recv, out)
		if !hit {
			corrected, ok = b.inner.DecodeInto(ws, recv, out)
			memo.put(i, recv, out, corrected, ok)
		}
		dst.PutAt(i*in, out)
		total += corrected
		allOK = allOK && ok
	}
	return total, allOK
}

// Message extracts and concatenates the message bits of every block.
func (b *Block) Message(codeword bitvec.Vector) bitvec.Vector {
	checkLen("codeword", codeword.Len(), b.N())
	in := b.inner.N()
	out := bitvec.New(0)
	for i := 0; i < b.blocks; i++ {
		out = out.Concat(b.inner.Message(codeword.Slice(i*in, (i+1)*in)))
	}
	return out
}

// ContainsAllOnes holds iff the inner code contains all-ones (the
// composite all-ones word is all blocks at all-ones).
func (b *Block) ContainsAllOnes() bool { return b.inner.ContainsAllOnes() }

// String implements fmt.Stringer.
func (b *Block) String() string {
	return fmt.Sprintf("%d x %s", b.blocks, b.inner)
}
