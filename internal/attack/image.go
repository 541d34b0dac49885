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
// parse images through these functions, so the bytes an attack writes
// are exactly the bytes an adapter parses — the paper's §VII-C demand
// for a precise storage format applies to the attacker's tooling too.
//
// Each layout has one composer and one parser. The lower-case composers
// write marshaled blobs into a given image with SetOwned: the exported
// ones into a fresh image, the arms of the hot attack loops into the
// pooled image of an arm slot, whose blobs come from pooled buffers the
// arm rewrites before it stores them again (each store advances the
// image's write generation, which the adapters' write cache keys on).
// The lower-case parsers decode into caller-owned helpers through the
// codecs' parse-into forms, reusing their storage: the adapters parse
// every write into one helper they own, and the exported parsers wrap
// them with fresh destinations.

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

// offsetInto decodes the ECC code-offset section into *dst.
func offsetInto(im *helperdata.Image, dst *bitvec.Vector) error {
	data, err := section(im, helperdata.SectionOffset)
	if err != nil {
		return err
	}
	return bitvec.UnmarshalVectorInto(dst, data)
}

// --- sequential pairing (LISA) ---

// SeqPairImage composes the LISA helper NVM image: the stored pair list
// and the code-offset redundancy.
func SeqPairImage(pairs pairing.SeqPairHelper, offset bitvec.Vector) (*helperdata.Image, error) {
	off, err := offset.MarshalBinary()
	if err != nil {
		return nil, err
	}
	im := helperdata.NewImage()
	seqPairImage(im, pairs.Append(nil), off)
	return im, nil
}

// seqPairImage writes the LISA sections into im from marshaled blobs.
func seqPairImage(im *helperdata.Image, pairs, offset []byte) {
	im.SetOwned(helperdata.SectionSeqPairs, pairs)
	im.SetOwned(helperdata.SectionOffset, offset)
}

// SeqPairFromImage decomposes a LISA helper NVM image.
func SeqPairFromImage(im *helperdata.Image) (pairing.SeqPairHelper, bitvec.Vector, error) {
	var pairs pairing.SeqPairHelper
	var offset bitvec.Vector
	if err := seqPairInto(im, &pairs, &offset); err != nil {
		return pairing.SeqPairHelper{}, bitvec.Vector{}, err
	}
	return pairs, offset, nil
}

// seqPairInto decomposes a LISA image into *pairs and *offset.
func seqPairInto(im *helperdata.Image, pairs *pairing.SeqPairHelper, offset *bitvec.Vector) error {
	data, err := section(im, helperdata.SectionSeqPairs)
	if err != nil {
		return err
	}
	if err := pairing.UnmarshalSeqPairInto(pairs, data); err != nil {
		return err
	}
	return offsetInto(im, offset)
}

// --- temperature-aware cooperative ---

// TempCoImage composes the temperature-aware helper NVM image. The
// tempco codec serializes pair records and offset as one blob.
func TempCoImage(h tempco.Helper) *helperdata.Image {
	im := helperdata.NewImage()
	tempCoImage(im, h.Marshal())
	return im
}

// tempCoImage writes the temperature-aware section into im from its
// marshaled blob.
func tempCoImage(im *helperdata.Image, blob []byte) {
	im.SetOwned(helperdata.SectionTempCo, blob)
}

// TempCoFromImage decomposes a temperature-aware helper NVM image.
func TempCoFromImage(im *helperdata.Image) (tempco.Helper, error) {
	var h tempco.Helper
	if err := tempCoInto(im, &h); err != nil {
		return tempco.Helper{}, err
	}
	return h, nil
}

// tempCoInto decomposes a temperature-aware image into *dst.
func tempCoInto(im *helperdata.Image, dst *tempco.Helper) error {
	data, err := section(im, helperdata.SectionTempCo)
	if err != nil {
		return err
	}
	return tempco.UnmarshalHelperInto(dst, data)
}

// --- group-based ---

// GroupBasedImage composes the group-based helper NVM image: distiller
// polynomial, group assignment, and code-offset redundancy.
func GroupBasedImage(h groupbased.Helper) (*helperdata.Image, error) {
	off, err := h.Offset.MarshalBinary()
	if err != nil {
		return nil, err
	}
	im := helperdata.NewImage()
	groupBasedImage(im, h.Poly.Marshal(), h.Grouping.Marshal(), off)
	return im, nil
}

// groupBasedImage writes the group-based sections into im from
// marshaled blobs (an arm builder's compose function).
func groupBasedImage(im *helperdata.Image, poly, grouping, offset []byte) {
	im.SetOwned(helperdata.SectionPolynomial, poly)
	im.SetOwned(helperdata.SectionGrouping, grouping)
	im.SetOwned(helperdata.SectionOffset, offset)
}

// GroupBasedFromImage decomposes a group-based helper NVM image.
func GroupBasedFromImage(im *helperdata.Image) (groupbased.Helper, error) {
	var h groupbased.Helper
	err := groupBasedInto(im, &h)
	return h, err
}

// groupBasedInto decomposes a group-based image into *dst.
func groupBasedInto(im *helperdata.Image, dst *groupbased.Helper) error {
	data, err := section(im, helperdata.SectionPolynomial)
	if err != nil {
		return err
	}
	if err := distiller.UnmarshalInto(&dst.Poly, data); err != nil {
		return err
	}
	if data, err = section(im, helperdata.SectionGrouping); err != nil {
		return err
	}
	if err := groupbased.UnmarshalGroupingInto(&dst.Grouping, data); err != nil {
		return err
	}
	return offsetInto(im, &dst.Offset)
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
	im := helperdata.NewImage()
	distillerImage(im, poly.Marshal(), maskBlob, off)
	return im, nil
}

// distillerImage writes the distiller + pairing sections into im from
// marshaled blobs (an arm builder's compose function); a nil mask
// leaves out (or removes) the masking section.
func distillerImage(im *helperdata.Image, poly, mask, offset []byte) {
	im.SetOwned(helperdata.SectionPolynomial, poly)
	if mask != nil {
		im.SetOwned(helperdata.SectionMasking, mask)
	} else {
		im.Delete(helperdata.SectionMasking)
	}
	im.SetOwned(helperdata.SectionOffset, offset)
}

// DistillerFromImage decomposes a distiller + pairing helper NVM image;
// the masking helper is nil when the image carries no masking section.
func DistillerFromImage(im *helperdata.Image) (distiller.Poly2D, *pairing.MaskingHelper, bitvec.Vector, error) {
	var poly distiller.Poly2D
	var mask pairing.MaskingHelper
	var offset bitvec.Vector
	hasMask, err := distillerInto(im, &poly, &mask, &offset)
	if err != nil {
		return distiller.Poly2D{}, nil, bitvec.Vector{}, err
	}
	if !hasMask {
		return poly, nil, offset, nil
	}
	return poly, &mask, offset, nil
}

// distillerInto decomposes a distiller + pairing image into *poly,
// *mask and *offset and reports whether it carries a masking section;
// without one, *mask is left as the empty helper (K 0, no selections).
func distillerInto(im *helperdata.Image, poly *distiller.Poly2D, mask *pairing.MaskingHelper, offset *bitvec.Vector) (bool, error) {
	data, err := section(im, helperdata.SectionPolynomial)
	if err != nil {
		return false, err
	}
	if err := distiller.UnmarshalInto(poly, data); err != nil {
		return false, err
	}
	raw, hasMask := im.SectionRO(helperdata.SectionMasking)
	if hasMask {
		if err := pairing.UnmarshalMaskingInto(mask, raw); err != nil {
			return false, err
		}
	} else {
		*mask = pairing.MaskingHelper{Selected: mask.Selected[:0]}
	}
	return hasMask, offsetInto(im, offset)
}
