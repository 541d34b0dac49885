package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/rng"
)

// Sketch is the code-offset construction (Dodis et al., the paper's
// reference [2]), the canonical secure sketch: at enrollment the device
// draws a random codeword c and publishes w = response XOR c as helper
// data; at reconstruction it computes w XOR response', decodes the
// result back to c, and recovers the enrolled response as w XOR c. The
// helper word w is exactly the "ECC redundancy" block of the paper's
// figures 4 and 7 — and the object the attacks overwrite.
//
// Every construction in this repository uses the same helper format:
// the response stream is zero-padded to max(1, ⌈len/N⌉) blocks of the
// inner code, each block decoded independently (see block), and the
// offset is that padded stream XOR the encoding of a message drawn one
// src.Bool() at a time. Sketch is that format, once.
//
// A zero Sketch is ready for Size. It is caller-owned scratch, not safe
// for concurrent use: the vectors it hands out are sketch-owned and
// stay valid until the next Size, Stream, Enroll or Reproduce. Size,
// Stream, Enroll and Reproduce allocate nothing once the sketch has
// seen its largest geometry; devices keep one per oracle. The decode
// results a sketch reuses across calls live on the interned code (see
// BCH.DecodeInto), shared by every sketch of that code.
type Sketch struct {
	blk block
	ws  Workspace
	// stream is the zero-padded response stream, word the offset XOR
	// the stream (the decoder's input), msg the drawn message, and out
	// the offset (Enroll) or the recovered stream (Reproduce).
	stream, word, msg, out bitvec.Vector
}

// Size sizes s for code over a response stream of streamLen bits:
// max(1, ⌈streamLen/N⌉) blocks.
func (s *Sketch) Size(code Code, streamLen int) {
	n := code.N()
	s.blk = block{inner: code, blocks: max(1, (streamLen+n-1)/n)}
	resize(&s.stream, s.blk.N())
}

// Len returns the padded stream length, which is also the offset's:
// Blocks() * N.
func (s *Sketch) Len() int { return s.blk.N() }

// Blocks returns the block count.
func (s *Sketch) Blocks() int { return s.blk.blocks }

// Stream returns the zeroed padded stream buffer, Len() bits, for the
// caller to fill with the response; Enroll and Reproduce read it.
func (s *Sketch) Stream() bitvec.Vector {
	s.stream.Zero()
	return s.stream
}

// Enroll draws a message from src, one src.Bool() per message bit, and
// returns the offset binding the stream to its codeword: stream XOR
// Encode(msg). It is enrollment's: the random codeword hides the
// response. A forged offset needs none, since a decode depends on the
// error pattern alone, so the attacks publish the stream itself (the
// zero codeword). The result is sketch-owned.
func (s *Sketch) Enroll(src *rng.Source) bitvec.Vector {
	msg, out := resize(&s.msg, s.blk.K()), resize(&s.out, s.Len())
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, src.Bool())
	}
	s.blk.EncodeInto(&s.ws, msg, out)
	s.stream.XorInto(out, out)
	return out
}

// Reproduce recovers the response the offset binds from the (noisy)
// stream: it decodes offset XOR stream and returns offset XOR the
// codeword. corrected is the number of bit errors the decoder repaired
// and ok=false means a block failed, in which case recovered holds
// unspecified scratch. recovered is sketch-owned. It panics if the
// offset is not Len() bits; callers check untrusted helper lengths.
func (s *Sketch) Reproduce(offset bitvec.Vector) (recovered bitvec.Vector, corrected int, ok bool) {
	checkLen("offset", offset.Len(), s.Len())
	word, out := resize(&s.word, s.Len()), resize(&s.out, s.Len())
	offset.XorInto(s.stream, word)
	if corrected, ok = s.blk.DecodeInto(&s.ws, word, out); ok {
		offset.XorInto(out, out)
	}
	return out, corrected, ok
}
