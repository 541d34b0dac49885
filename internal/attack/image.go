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
// Each layout has one composer and one parser, and each blob one
// encoder (the codec's Append) and one parser (its *Into form), which
// accepts exactly the bytes Append writes. A composer stores encoded
// blobs into a given image with SetOwned: an adapter's ReadImage into
// a fresh image, an arm of the hot attack loops into the pooled image
// of its slot, whose blobs come from pooled buffers the arm rewrites
// before it stores them again (each store advances the image's write
// generation, which the adapters' write cache keys on). A parser
// decodes into caller-owned helpers, reusing their storage: the
// adapters parse every write into one helper they own, and an attack
// parses the image it read at its start.

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

// seqPairImage writes the LISA sections into im from encoded blobs: the
// stored pair list and the code-offset redundancy.
func seqPairImage(im *helperdata.Image, pairs, offset []byte) {
	im.SetOwned(helperdata.SectionSeqPairs, pairs)
	im.SetOwned(helperdata.SectionOffset, offset)
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

// tempCoImage writes the temperature-aware section into im from its
// encoded blob; the tempco codec encodes pair records and offset as one
// blob.
func tempCoImage(im *helperdata.Image, blob []byte) {
	im.SetOwned(helperdata.SectionTempCo, blob)
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

// groupBasedImage writes the group-based sections into im from encoded
// blobs: distiller polynomial, group assignment, and code-offset
// redundancy (also an arm builder's compose function).
func groupBasedImage(im *helperdata.Image, poly, grouping, offset []byte) {
	im.SetOwned(helperdata.SectionPolynomial, poly)
	im.SetOwned(helperdata.SectionGrouping, grouping)
	im.SetOwned(helperdata.SectionOffset, offset)
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

// distillerImage writes the distiller + pairing sections into im from
// encoded blobs (also an arm builder's compose function); a nil mask,
// the overlapping-chain mode, leaves out (or removes) the masking
// section.
func distillerImage(im *helperdata.Image, poly, mask, offset []byte) {
	im.SetOwned(helperdata.SectionPolynomial, poly)
	if mask != nil {
		im.SetOwned(helperdata.SectionMasking, mask)
	} else {
		im.Delete(helperdata.SectionMasking)
	}
	im.SetOwned(helperdata.SectionOffset, offset)
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
