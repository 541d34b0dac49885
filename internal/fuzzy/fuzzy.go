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
	"crypto/sha256"
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

// ErrReconstructFailed is returned when decoding fails.
var ErrReconstructFailed = errors.New("fuzzy: key reconstruction failed")

// ErrManipulationDetected is returned by the robust variant when the
// commitment check fails.
var ErrManipulationDetected = errors.New("fuzzy: helper-data manipulation detected")

// Enroll builds helper data and derives the key from an enrollment
// response of arbitrary length (padded internally to ECC blocks).
func Enroll(response bitvec.Vector, p Params, src *rng.Source) (Helper, []byte, error) {
	if p.Code == nil {
		return Helper{}, nil, errors.New("fuzzy: nil ECC")
	}
	var sk ecc.Sketch
	sk.Size(p.Code, response.Len())
	padded := sk.Stream()
	padded.PutAt(0, response)
	w := sk.Enroll(src)
	key := deriveKey(padded, w, p.Robust)
	h := Helper{W: w}
	if p.Robust {
		h.Tag = commitment(padded, w)
	}
	return h, key, nil
}

// Reconstruct recovers the key from a fresh noisy response reading.
func Reconstruct(response bitvec.Vector, p Params, h Helper) ([]byte, error) {
	if p.Code == nil {
		return nil, errors.New("fuzzy: nil ECC")
	}
	var sk ecc.Sketch
	sk.Size(p.Code, response.Len())
	if sk.Len() != h.W.Len() {
		return nil, fmt.Errorf("fuzzy: helper length %d, response padded %d", h.W.Len(), sk.Len())
	}
	sk.Stream().PutAt(0, response)
	recovered, _, ok := sk.Reproduce(h.W)
	if !ok {
		return nil, ErrReconstructFailed
	}
	if p.Robust {
		tag := commitment(recovered, h.W)
		if len(h.Tag) != len(tag) {
			return nil, ErrManipulationDetected
		}
		for i := range tag {
			if tag[i] != h.Tag[i] {
				return nil, ErrManipulationDetected
			}
		}
	}
	return deriveKey(recovered, h.W, p.Robust), nil
}

// deriveKey hashes the recovered enrollment response into the key. The
// robust variant binds the helper word into the derivation as well.
func deriveKey(response, w bitvec.Vector, robust bool) []byte {
	h := sha256.New()
	h.Write([]byte("fuzzy-extractor-key/v1"))
	h.Write(response.Bytes())
	if robust {
		h.Write(w.Bytes())
	}
	return h.Sum(nil)
}

// commitment is the robust variant's manipulation-detection tag.
func commitment(response, w bitvec.Vector) []byte {
	h := sha256.New()
	h.Write([]byte("fuzzy-extractor-tag/v1"))
	h.Write(response.Bytes())
	h.Write(w.Bytes())
	return h.Sum(nil)
}
