package attack

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/groupbased"
	"repro/internal/helperdata"
	"repro/internal/pairing"
	"repro/internal/tempco"
)

// This file pins each construction's helper NVM image layout: which
// helperdata sections it uses and how each blob is encoded (via the
// construction packages' own codecs). It is the only place in the
// package that names a section. Attacks and device adapters compose and
// parse images through these functions, the arms of the hot attack
// loops included (they pass the blobs they pool to the lower-case
// composers), so the bytes an attack writes are exactly the bytes an
// adapter parses — the paper's §VII-C demand for a precise storage
// format applies to the attacker's tooling too. Every composer hands
// the image blobs it owns no longer (SetOwned): a freshly marshaled
// blob, or an arm's pooled blob, whose image is never re-installed
// after its decision.

// section reads one named section or fails loudly. The read is zero-copy
// (SectionRO): every consumer below parses the bytes into typed helper
// structs without retaining the slice.
func section(im *helperdata.Image, name string) ([]byte, error) {
	data, ok := im.SectionRO(name)
	if !ok {
		return nil, fmt.Errorf("attack: image lacks section %q (have %v)", name, im.Names())
	}
	return data, nil
}

// offsetFromImage decodes the ECC code-offset section.
func offsetFromImage(im *helperdata.Image) (bitvec.Vector, error) {
	data, err := section(im, helperdata.SectionOffset)
	if err != nil {
		return bitvec.Vector{}, err
	}
	return bitvec.UnmarshalVector(data)
}

// --- sequential pairing (LISA) ---

// SeqPairImage composes the LISA helper NVM image: the stored pair list
// and the code-offset redundancy.
func SeqPairImage(pairs pairing.SeqPairHelper, offset bitvec.Vector) (*helperdata.Image, error) {
	off, err := offset.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return seqPairImage(pairs.Append(nil), off), nil
}

// seqPairImage composes the LISA image from marshaled blobs.
func seqPairImage(pairs, offset []byte) *helperdata.Image {
	im := helperdata.NewImage()
	im.SetOwned(helperdata.SectionSeqPairs, pairs)
	im.SetOwned(helperdata.SectionOffset, offset)
	return im
}

// SeqPairFromImage decomposes a LISA helper NVM image.
func SeqPairFromImage(im *helperdata.Image) (pairing.SeqPairHelper, bitvec.Vector, error) {
	data, err := section(im, helperdata.SectionSeqPairs)
	if err != nil {
		return pairing.SeqPairHelper{}, bitvec.Vector{}, err
	}
	pairs, err := pairing.UnmarshalSeqPair(data)
	if err != nil {
		return pairing.SeqPairHelper{}, bitvec.Vector{}, err
	}
	offset, err := offsetFromImage(im)
	if err != nil {
		return pairing.SeqPairHelper{}, bitvec.Vector{}, err
	}
	return pairs, offset, nil
}

// --- temperature-aware cooperative ---

// TempCoImage composes the temperature-aware helper NVM image. The
// tempco codec serializes pair records and offset as one blob.
func TempCoImage(h tempco.Helper) *helperdata.Image {
	im := helperdata.NewImage()
	im.SetOwned(helperdata.SectionTempCo, h.Marshal())
	return im
}

// TempCoFromImage decomposes a temperature-aware helper NVM image.
func TempCoFromImage(im *helperdata.Image) (tempco.Helper, error) {
	data, err := section(im, helperdata.SectionTempCo)
	if err != nil {
		return tempco.Helper{}, err
	}
	return tempco.UnmarshalHelper(data)
}

// --- group-based ---

// GroupBasedImage composes the group-based helper NVM image: distiller
// polynomial, group assignment, and code-offset redundancy.
func GroupBasedImage(h groupbased.Helper) (*helperdata.Image, error) {
	off, err := h.Offset.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return groupBasedImage(h.Poly.Marshal(), h.Grouping.Marshal(), off), nil
}

// groupBasedImage composes the group-based image from marshaled blobs
// (an arm builder's compose function).
func groupBasedImage(poly, grouping, offset []byte) *helperdata.Image {
	im := helperdata.NewImage()
	im.SetOwned(helperdata.SectionPolynomial, poly)
	im.SetOwned(helperdata.SectionGrouping, grouping)
	im.SetOwned(helperdata.SectionOffset, offset)
	return im
}

// GroupBasedFromImage decomposes a group-based helper NVM image.
func GroupBasedFromImage(im *helperdata.Image) (groupbased.Helper, error) {
	var h groupbased.Helper
	data, err := section(im, helperdata.SectionPolynomial)
	if err != nil {
		return h, err
	}
	if h.Poly, err = distiller.Unmarshal(data); err != nil {
		return h, err
	}
	if data, err = section(im, helperdata.SectionGrouping); err != nil {
		return h, err
	}
	if h.Grouping, err = groupbased.UnmarshalGrouping(data); err != nil {
		return h, err
	}
	h.Offset, err = offsetFromImage(im)
	return h, err
}

// --- distiller + pairing (masking / overlapping chain) ---

// DistillerImage composes the distiller + pairing helper NVM image.
// mask is nil in overlapping-chain mode (no masking section).
func DistillerImage(poly distiller.Poly2D, mask *pairing.MaskingHelper, offset bitvec.Vector) (*helperdata.Image, error) {
	off, err := offset.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var maskBlob []byte
	if mask != nil {
		maskBlob = mask.Marshal()
	}
	return distillerImage(poly.Marshal(), maskBlob, off), nil
}

// distillerImage composes the distiller + pairing image from marshaled
// blobs (an arm builder's compose function); a nil mask leaves out the
// masking section.
func distillerImage(poly, mask, offset []byte) *helperdata.Image {
	im := helperdata.NewImage()
	im.SetOwned(helperdata.SectionPolynomial, poly)
	if mask != nil {
		im.SetOwned(helperdata.SectionMasking, mask)
	}
	im.SetOwned(helperdata.SectionOffset, offset)
	return im
}

// DistillerFromImage decomposes a distiller + pairing helper NVM image;
// the masking helper is nil when the image carries no masking section.
func DistillerFromImage(im *helperdata.Image) (distiller.Poly2D, *pairing.MaskingHelper, bitvec.Vector, error) {
	data, err := section(im, helperdata.SectionPolynomial)
	if err != nil {
		return distiller.Poly2D{}, nil, bitvec.Vector{}, err
	}
	poly, err := distiller.Unmarshal(data)
	if err != nil {
		return distiller.Poly2D{}, nil, bitvec.Vector{}, err
	}
	var mask *pairing.MaskingHelper
	if raw, ok := im.SectionRO(helperdata.SectionMasking); ok {
		m, err := pairing.UnmarshalMasking(raw)
		if err != nil {
			return distiller.Poly2D{}, nil, bitvec.Vector{}, err
		}
		mask = &m
	}
	offset, err := offsetFromImage(im)
	if err != nil {
		return distiller.Poly2D{}, nil, bitvec.Vector{}, err
	}
	return poly, mask, offset, nil
}
