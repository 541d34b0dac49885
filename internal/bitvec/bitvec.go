// Package bitvec implements fixed-length bit vectors over GF(2).
//
// Bit vectors are the lingua franca of this repository: PUF responses,
// ECC codewords, code-offset helper data and attack error masks are all
// Vector values. The representation is a little-endian slice of 64-bit
// words; bit i of the vector lives at word i/64, position i%64.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-length bit vector. The zero value is an empty vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of length n. It panics if n is negative.
func New(n int) Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// Resized returns an all-zero vector of length n that reuses v's word
// storage when its capacity suffices and allocates only on growth; the
// result then aliases v. Scratch buffers whose length changes from use
// to use resize through it. It panics if n is negative.
func (v Vector) Resized(n int) Vector {
	words := (n + 63) / 64
	if n < 0 || cap(v.words) < words {
		return New(n)
	}
	out := Vector{n: n, words: v.words[:words]}
	out.Zero()
	return out
}

// FromBits builds a vector from a slice of bits given as 0/1 bytes.
func FromBits(bits []byte) Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b > 1 {
			panic(fmt.Sprintf("bitvec: bit value %d out of range", b))
		}
		if b == 1 {
			v.Set(i, true)
		}
	}
	return v
}

// FromString parses a string of '0' and '1' runes, most significant first
// in reading order: position 0 of the vector is the first rune.
func FromString(s string) (Vector, error) {
	v := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q at %d", r, i)
		}
	}
	return v, nil
}

// MustFromString is FromString that panics on error; intended for tests
// and package-level constants.
func MustFromString(s string) Vector {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the number of bits.
func (v Vector) Len() int { return v.n }

// Get returns bit i.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]>>(uint(i)&63)&1 == 1
}

// Bit returns bit i as 0 or 1.
func (v Vector) Bit(i int) byte {
	if v.Get(i) {
		return 1
	}
	return 0
}

// Set assigns bit i.
func (v Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Flip inverts bit i.
func (v Vector) Flip(i int) {
	v.check(i)
	v.words[i>>6] ^= 1 << (uint(i) & 63)
}

// Word returns bits [64i, 64i+64) packed little-endian, bit 64i in the
// least significant position; bits at or beyond Len read as zero. It is
// the read side of the word-at-a-time ECC kernels (BCH syndromes and
// parity by byte table).
func (v Vector) Word(i int) uint64 { return v.words[i] }

// SetWord overwrites bits [64i, 64i+64) with w, dropping the bits of w
// at or beyond Len; the store side of Word.
func (v Vector) SetWord(i int, w uint64) {
	v.words[i] = w
	if i == len(v.words)-1 {
		v.maskTail()
	}
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Zero clears every bit in place.
func (v Vector) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// SetAll sets every bit in place; the in-buffer counterpart of Ones.
func (v Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.maskTail()
}

// CopyInto copies v into dst, which must have the same length. The
// allocation-free counterpart of Clone for reused scratch buffers.
func (v Vector) CopyInto(dst Vector) {
	v.sameLen(dst)
	copy(dst.words, v.words)
}

// XorInto writes v XOR u into dst word-by-word. All three lengths must
// match; dst may alias v or u.
func (v Vector) XorInto(u, dst Vector) {
	v.sameLen(u)
	v.sameLen(dst)
	for i := range dst.words {
		dst.words[i] = v.words[i] ^ u.words[i]
	}
}

// Xor returns v XOR u. The lengths must match.
func (v Vector) Xor(u Vector) Vector {
	v.sameLen(u)
	w := v.Clone()
	for i := range w.words {
		w.words[i] ^= u.words[i]
	}
	return w
}

// XorInPlace sets v to v XOR u.
func (v Vector) XorInPlace(u Vector) {
	v.sameLen(u)
	for i := range v.words {
		v.words[i] ^= u.words[i]
	}
}

// And returns v AND u.
func (v Vector) And(u Vector) Vector {
	v.sameLen(u)
	w := v.Clone()
	for i := range w.words {
		w.words[i] &= u.words[i]
	}
	return w
}

// Not returns the bitwise complement of v.
func (v Vector) Not() Vector {
	w := v.Clone()
	for i := range w.words {
		w.words[i] = ^w.words[i]
	}
	w.maskTail()
	return w
}

func (v Vector) sameLen(u Vector) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, u.n))
	}
}

// maskTail clears the unused high bits of the last word so that Weight and
// Equal can operate word-wise.
func (v Vector) maskTail() {
	if v.n%64 != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << (uint(v.n) & 63)) - 1
	}
}

// Weight returns the Hamming weight (number of set bits).
func (v Vector) Weight() int {
	w := 0
	for _, word := range v.words {
		w += bits.OnesCount64(word)
	}
	return w
}

// HammingDistance returns the number of positions where v and u differ.
func (v Vector) HammingDistance(u Vector) int {
	v.sameLen(u)
	d := 0
	for i := range v.words {
		d += bits.OnesCount64(v.words[i] ^ u.words[i])
	}
	return d
}

// Equal reports whether v and u have identical length and bits.
func (v Vector) Equal(u Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every bit is zero.
func (v Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Slice returns a copy of bits [from, to).
func (v Vector) Slice(from, to int) Vector {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: invalid slice [%d,%d) of length %d", from, to, v.n))
	}
	w := New(to - from)
	v.SliceInto(from, to, w)
	return w
}

// SliceInto extracts bits [from, to) of v into dst, whose length must be
// to-from. The extraction shifts whole words, not individual bits; it is
// the scratch-buffer primitive behind Slice and the block codec's
// per-block reads.
func (v Vector) SliceInto(from, to int, dst Vector) {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: invalid slice [%d,%d) of length %d", from, to, v.n))
	}
	if dst.n != to-from {
		panic(fmt.Sprintf("bitvec: slice buffer length %d, want %d", dst.n, to-from))
	}
	w, s := from>>6, uint(from)&63
	for j := range dst.words {
		word := v.words[w+j] >> s
		if s != 0 && w+j+1 < len(v.words) {
			word |= v.words[w+j+1] << (64 - s)
		}
		dst.words[j] = word
	}
	dst.maskTail()
}

// PutAt overwrites bits [at, at+u.n) of v with u, blending whole words
// of u into v with two shifts per word. The word-level inverse of
// SliceInto; Concat and the block codec's per-block writes build on it.
func (v Vector) PutAt(at int, u Vector) {
	if at < 0 || at+u.n > v.n {
		panic(fmt.Sprintf("bitvec: put [%d,%d) outside length %d", at, at+u.n, v.n))
	}
	w, s := at>>6, uint(at)&63
	remaining := u.n
	for j := 0; j < len(u.words); j++ {
		word := u.words[j]
		width := remaining
		if width > 64 {
			width = 64
		}
		mask := ^uint64(0)
		if width < 64 {
			mask = 1<<uint(width) - 1
		}
		v.words[w+j] = v.words[w+j]&^(mask<<s) | word<<s
		if s != 0 && uint(width)+s > 64 {
			v.words[w+j+1] = v.words[w+j+1]&^(mask>>(64-s)) | word>>(64-s)
		}
		remaining -= width
	}
}

// Concat returns the concatenation of v followed by u.
func (v Vector) Concat(u Vector) Vector {
	w := New(v.n + u.n)
	copy(w.words, v.words)
	w.PutAt(v.n, u)
	return w
}

// Bits returns the vector as a slice of 0/1 bytes.
func (v Vector) Bits() []byte {
	out := make([]byte, v.n)
	for i := range out {
		out[i] = v.Bit(i)
	}
	return out
}

// Bytes packs the vector into bytes, bit i at byte i/8, LSB-first within
// each byte. The final partial byte, if any, is zero-padded. Full words
// are emitted eight bytes at a time.
func (v Vector) Bytes() []byte {
	out := make([]byte, (v.n+7)/8)
	at := 0
	for _, word := range v.words {
		if len(out)-at >= 8 {
			binary.LittleEndian.PutUint64(out[at:], word)
			at += 8
			continue
		}
		for ; at < len(out); at++ {
			out[at] = byte(word)
			word >>= 8
		}
	}
	return out
}

// Ones returns an all-ones vector of length n.
func Ones(n int) Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.maskTail()
	return v
}

// String renders the vector as a string of '0' and '1', bit 0 first.
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Append appends the vector's NVM encoding to dst and returns the
// extended slice: a little-endian uint32 bit length followed by the
// Bytes packing, so the exact length survives byte-oriented storage
// (helper NVM sections). Full words are packed eight bytes at a time;
// Append(nil) allocates exactly once.
func (v Vector) Append(dst []byte) []byte {
	remaining := (v.n + 7) / 8
	if need := len(dst) + 4 + remaining; cap(dst) < need {
		// One exact allocation in every build: slices.Grow would take
		// two under the race detector, which disables the append-make
		// fusion it relies on.
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.n))
	for _, word := range v.words {
		if remaining >= 8 {
			dst = binary.LittleEndian.AppendUint64(dst, word)
			remaining -= 8
			continue
		}
		for ; remaining > 0; remaining-- {
			dst = append(dst, byte(word))
			word >>= 8
		}
	}
	return dst
}

// UnmarshalVectorInto parses Append's encoding into *dst, reusing its
// word storage when the capacity suffices, so a parser that keeps its
// destination allocates nothing once the buffer has grown. It accepts
// exactly the encodings Append produces: trailing bytes beyond the
// declared length and set bits past it in the final byte are rejected,
// so two different sections never parse to the same vector. On error
// *dst is left unchanged.
func UnmarshalVectorInto(dst *Vector, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("bitvec: %d-byte header truncated", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	need := (n + 7) / 8
	if len(data) != need {
		return fmt.Errorf("bitvec: %d data bytes for %d bits", len(data), n)
	}
	if tail := n % 8; tail != 0 && data[need-1]>>tail != 0 {
		return fmt.Errorf("bitvec: set bits past length %d", n)
	}
	if words := (n + 63) / 64; dst.words == nil || cap(dst.words) < words {
		*dst = New(n)
	} else {
		*dst = Vector{n: n, words: dst.words[:words]}
		clear(dst.words)
	}
	for i, b := range data {
		dst.words[i>>3] |= uint64(b) << ((uint(i) & 7) * 8)
	}
	return nil
}

// SupportIndices returns the positions of all set bits in increasing order.
func (v Vector) SupportIndices() []int {
	idx := make([]int, 0, v.Weight())
	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
		idx = append(idx, i)
	}
	return idx
}

// NextSet returns the index of the first set bit at or after from, or -1
// when no set bit remains. The allocation-free iteration primitive
// (`for i := v.NextSet(0); i >= 0; i = v.NextSet(i+1)`) behind
// SupportIndices and the ECC syndrome loops.
func (v Vector) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	j := from >> 6
	word := v.words[j] >> (uint(from) & 63) << (uint(from) & 63)
	for {
		if word != 0 {
			return j<<6 + bits.TrailingZeros64(word)
		}
		j++
		if j >= len(v.words) {
			return -1
		}
		word = v.words[j]
	}
}

// HasPrefix reports whether the first p.Len() bits of v equal p. It is
// the allocation-free equivalent of v.Slice(0, p.Len()).Equal(p).
func (v Vector) HasPrefix(p Vector) bool {
	if p.n > v.n {
		return false
	}
	full := p.n >> 6
	for i := 0; i < full; i++ {
		if v.words[i] != p.words[i] {
			return false
		}
	}
	if rem := uint(p.n) & 63; rem != 0 {
		mask := uint64(1)<<rem - 1
		if (v.words[full]^p.words[full])&mask != 0 {
			return false
		}
	}
	return true
}
