// Package fuzzy implements the fuzzy extractor of Dodis et al. (the
// paper's reference [2]), the "well-established standard solution" the
// paper recommends over the attacked ad-hoc constructions (Fig. 7): a
// code-offset secure sketch for reliability chained with a cryptographic
// hash for entropy compression.
//
// The package also provides the robust variant in the spirit of Boyen et
// al. (the paper's reference [1]): the device additionally stores a
// commitment hash over the enrolled response and the helper data, letting
// reconstruction DETECT helper-data manipulation instead of silently
// producing a shifted key.
//
// The security property the repository's experiment E12 demonstrates: for
// the plain fuzzy extractor, offsetting the helper word w by any fixed
// delta shifts the recovered response by exactly delta (when decoding
// succeeds), so the failure event is independent of the secret response —
// helper manipulation gains the attacker nothing, in contrast with every
// construction of Sections IV-V.
package fuzzy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/rng"
)

// Params configures a fuzzy extractor.
type Params struct {
	// Code is the per-block ECC of the secure sketch.
	Code ecc.Code
	// Robust enables the manipulation-detection commitment.
	Robust bool
}

// Helper is the public helper data.
type Helper struct {
	// W is the code-offset word, length = padded response length.
	W bitvec.Vector
	// Tag is the robust-variant commitment (sha256 over response and
	// helper); empty in the plain variant.
	Tag []byte
}

// Key is a derived key: a SHA-256 digest.
type Key [sha256.Size]byte

// ErrReconstructFailed is returned when decoding fails.
var ErrReconstructFailed = errors.New("fuzzy: key reconstruction failed")

// ErrManipulationDetected is returned by the robust variant when the
// commitment check fails.
var ErrManipulationDetected = errors.New("fuzzy: helper-data manipulation detected")

// Enroll builds helper data and derives the key from an enrollment
// response of arbitrary length (padded internally to ECC blocks).
func Enroll(response bitvec.Vector, p Params, src *rng.Source) (Helper, Key, error) {
	if p.Code == nil {
		return Helper{}, Key{}, errors.New("fuzzy: nil ECC")
	}
	var sk ecc.Sketch
	sk.Size(p.Code, response.Len())
	padded := sk.Stream()
	padded.PutAt(0, response)
	w := sk.Enroll(src)
	h := Helper{W: w}
	if p.Robust {
		tag := commitment(padded, w)
		h.Tag = tag[:]
	}
	return h, deriveKey(padded, w, p.Robust), nil
}

// Reconstruct recovers the key from a fresh noisy response reading,
// which the caller has written into the stream of sk, sized for p.Code
// over the response length. A steady-state call allocates nothing.
func Reconstruct(sk *ecc.Sketch, p Params, h Helper) (Key, error) {
	if p.Code == nil {
		return Key{}, errors.New("fuzzy: nil ECC")
	}
	if sk.Len() != h.W.Len() {
		return Key{}, fmt.Errorf("fuzzy: helper length %d, response padded %d", h.W.Len(), sk.Len())
	}
	recovered, _, ok := sk.Reproduce(h.W)
	if !ok {
		return Key{}, ErrReconstructFailed
	}
	if p.Robust {
		if tag := commitment(recovered, h.W); !bytes.Equal(h.Tag, tag[:]) {
			return Key{}, ErrManipulationDetected
		}
	}
	return deriveKey(recovered, h.W, p.Robust), nil
}

// deriveKey hashes the recovered enrollment response into the key. The
// robust variant binds the helper word into the derivation as well.
func deriveKey(response, w bitvec.Vector, robust bool) Key {
	if robust {
		return digest("fuzzy-extractor-key/v1", response, w)
	}
	return digest("fuzzy-extractor-key/v1", response)
}

// commitment is the robust variant's manipulation-detection tag.
func commitment(response, w bitvec.Vector) Key {
	return digest("fuzzy-extractor-tag/v1", response, w)
}

// digest is SHA-256 over label followed by each vector's bitvec.Bytes
// packing, written a word at a time so that nothing escapes.
func digest(label string, vs ...bitvec.Vector) (sum Key) {
	h := sha256.New()
	h.Write([]byte(label))
	var buf [8]byte
	for _, v := range vs {
		for i, rem := 0, (v.Len()+7)/8; rem > 0; i++ {
			binary.LittleEndian.PutUint64(buf[:], v.Word(i))
			k := min(rem, 8)
			h.Write(buf[:k])
			rem -= k
		}
	}
	h.Sum(sum[:0])
	return sum
}
