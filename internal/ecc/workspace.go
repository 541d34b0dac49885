package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/galois"
)

// Workspace is caller-owned scratch state for the allocation-free
// EncodeInto, DecodeInto and ReproduceInto paths. A zero Workspace is
// ready to use; buffers grow on first use and are reused afterwards, so
// a steady-state ReproduceInto cycle over a fixed code performs no heap
// allocations. A Workspace serves one call at a time: it is not safe
// for concurrent use, and a Block must not nest another Block as its
// inner code (the per-block buffers would be reentered). Devices keep
// one Workspace per oracle.
//
// A Workspace also remembers, per block index, the last word a Block
// decode handed to its inner code and what that decode returned (see
// Block.DecodeInto). The key is the word's content under the same inner
// code, and a decode is a pure function of exactly that, so an entry
// never goes stale and nothing invalidates it. A throwaway Workspace
// (Block.Decode, IsCodeword, ConsistentWith) serves a single Block
// decode and allocates nothing for it: the memo's storage is made on a
// Workspace's second Block decode.
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
	// memo is the Block decode's per-block-index memo.
	memo decodeMemo
}

// decodeMemo holds one entry per block index: the inner code's input
// word, its output word and its (corrected, ok), for the inner code
// named by code. Every entry lives in one backing slice, laid out as
// a header word, then n input words, then n output words. A header
// of 0 marks an empty entry; otherwise it packs 1 | ok<<1 |
// corrected<<2.
type decodeMemo struct {
	armed bool // a Block decode has run on this Workspace before
	code  Code
	n     int // words per stored word
	words []uint64
}

// prepare readies the memo for a decode of b and returns it, or nil on
// the first Block decode a Workspace serves. A change of inner code
// empties every entry; a larger block count or inner length grows the
// backing slice, and nothing else allocates.
func (m *decodeMemo) prepare(b *Block) *decodeMemo {
	if !m.armed {
		m.armed = true
		return nil
	}
	n := (b.inner.N() + 63) / 64
	if m.code != b.inner || m.n != n {
		m.code, m.n = b.inner, n
		clear(m.words)
	}
	if need := b.blocks * (1 + 2*n); len(m.words) < need {
		grown := make([]uint64, need)
		copy(grown, m.words)
		m.words = grown
	}
	return m
}

// get copies entry i's output into out and returns its (corrected, ok)
// when the entry holds recv as its input word; hit is false otherwise,
// and always on a nil memo.
func (m *decodeMemo) get(i int, recv, out bitvec.Vector) (corrected int, ok, hit bool) {
	if m == nil {
		return 0, false, false
	}
	e := m.words[i*(1+2*m.n):][:1+2*m.n]
	if e[0] == 0 {
		return 0, false, false
	}
	for w, x := range e[1 : 1+m.n] {
		if recv.Word(w) != x {
			return 0, false, false
		}
	}
	for w, x := range e[1+m.n:] {
		out.SetWord(w, x)
	}
	return int(e[0] >> 2), e[0]&2 != 0, true
}

// put stores recv's decode (out, corrected, ok) as entry i; a nil memo
// stores nothing.
func (m *decodeMemo) put(i int, recv, out bitvec.Vector, corrected int, ok bool) {
	if m == nil {
		return
	}
	e := m.words[i*(1+2*m.n):][:1+2*m.n]
	e[0] = uint64(corrected)<<2 | 1
	if ok {
		e[0] |= 2
	}
	for w := 0; w < m.n; w++ {
		e[1+w], e[1+m.n+w] = recv.Word(w), out.Word(w)
	}
}

// vec returns *v resized to n bits, reallocating only when its
// capacity is too small, so a workspace that alternates between block
// counts or inner lengths stops allocating once it has seen the
// largest. Contents are unspecified; callers overwrite the buffer fully.
func (ws *Workspace) vec(v *bitvec.Vector, n int) bitvec.Vector {
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
