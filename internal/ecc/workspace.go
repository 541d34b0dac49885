package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/galois"
)

// Workspace is caller-owned scratch state for the allocation-free
// EncodeInto and DecodeInto paths. A zero Workspace is ready to use;
// buffers grow on first use and are reused afterwards, so a
// steady-state decode cycle over a fixed code performs no heap
// allocations. A Workspace serves one call at a time: it is not safe
// for concurrent use. Every Sketch holds one. Decode results that
// outlive a call live on the code itself (BCH's coset cache), not here.
type Workspace struct {
	// per-block buffers of a block decode.
	blockRecv, blockOut bitvec.Vector
	// per-block message buffer of a block encode.
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

// resize returns *v resized to n bits, reallocating only when its
// capacity is too small, so a workspace or sketch that alternates
// between block counts or inner lengths stops allocating once it has
// seen the largest. Contents are unspecified; callers overwrite the
// buffer fully.
func resize(v *bitvec.Vector, n int) bitvec.Vector {
	if v.Len() != n {
		*v = v.Resized(n)
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
