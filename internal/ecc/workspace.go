package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/galois"
)

// Workspace is caller-owned scratch state for the allocation-free
// EncodeInto, DecodeInto and ReproduceInto paths. A zero Workspace is
// ready to use; buffers grow on first use and are reused afterwards, so
// a steady-state ReproduceInto cycle over a fixed code performs no heap
// allocations. A Workspace serves one call at a time: it is not safe for concurrent use, and a Block must
// not nest another Block as its inner code (the per-block buffers would
// be reentered). Devices keep one Workspace per oracle.
type Workspace struct {
	// code-offset buffer: offset XOR response, full composite length.
	xorBuf bitvec.Vector
	// per-block buffers of a Block decode.
	blockRecv, blockOut bitvec.Vector
	// per-block message buffer of a Block encode.
	blockMsg bitvec.Vector
	// BCH encoder state: the parity accumulator, packed in words.
	parity []uint64
	// BCH decoder state: syndromes, the three rotating Berlekamp-Massey
	// polynomial buffers, the Chien-search (running log, step) pair per
	// nonzero locator coefficient, and the root list.
	synd      []galois.Elem
	bmC       galois.Poly
	bmPrev    galois.Poly
	bmSpare   galois.Poly
	chien     []galois.Elem
	positions []int
}

// vec returns *v resized to n bits, reallocating only on length change.
// Contents are unspecified; callers overwrite the buffer fully.
func (ws *Workspace) vec(v *bitvec.Vector, n int) bitvec.Vector {
	if v.Len() != n {
		*v = bitvec.New(n)
	}
	return *v
}

// zeroed returns buf resized to n entries, zeroed, reallocating only
// when its capacity is too small.
func zeroed[E galois.Elem | uint64](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ReproduceInto is Reproduce with caller-owned scratch: dst (length
// c.N()) receives the recovered response on ok=true and holds
// unspecified scratch on ok=false. Output is bit-identical to Reproduce
// on the same inputs.
func ReproduceInto(c Code, o Offset, response bitvec.Vector, ws *Workspace, dst bitvec.Vector) (corrected int, ok bool) {
	checkLen("response", response.Len(), c.N())
	checkLen("offset", o.W.Len(), c.N())
	checkLen("reproduce buffer", dst.Len(), c.N())
	buf := ws.vec(&ws.xorBuf, c.N())
	o.W.XorInto(response, buf)
	if corrected, ok = c.DecodeInto(ws, buf, dst); !ok {
		return corrected, false
	}
	o.W.XorInto(dst, dst)
	return corrected, true
}
