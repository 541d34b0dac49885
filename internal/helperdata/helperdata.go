// Package helperdata models the public helper NVM image of a deployed
// PUF device: a sectioned, byte-serializable container holding each
// construction's helper blobs (pair lists, polynomial coefficients,
// group assignments, ECC redundancy).
//
// The paper's §VII-C criticizes attacked proposals for leaving "the
// precise storage format, parsing procedure and/or sanity checks"
// unspecified, since "subtle differences might impact security
// tremendously". This package pins one precise format so that the
// parsing layer itself cannot hide ambiguity:
//
//	image := magic(4) version(1) sectionCount(2)
//	         { nameLen(1) name nameLen bytes  dataLen(4) data }*
//	         checksum(4)
//
// The checksum is CRC-32 (IEEE) over everything before it. NOTE the
// threat model: the checksum protects against NVM corruption, NOT
// against the attacker — anyone who can write helper data can recompute
// it, exactly as the paper assumes. Integrity against manipulation needs
// the robust fuzzy extractor (internal/fuzzy), not a checksum.
package helperdata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Format constants.
const (
	magic   = "ROPF"
	version = 1
	// MaxSectionBytes bounds a single section; parsing rejects images
	// that claim more, preventing length-field abuse.
	MaxSectionBytes = 1 << 24
)

// Common section names used by the constructions in this repository.
const (
	SectionSeqPairs   = "seq-pairs"
	SectionMasking    = "masking"
	SectionPolynomial = "distiller-poly"
	SectionGrouping   = "grouping"
	SectionOffset     = "ecc-offset"
	SectionTempCo     = "tempco-pairs"
)

// Image is an in-memory helper NVM image: named byte sections. The
// backing store is a small name-sorted slice rather than a map — real
// images hold a handful of sections, and the sorted slice makes an
// image two allocations with cheaper lookups than map hashing at these
// sizes.
//
// An image counts its section writes (Gen). A consumer that memoizes
// what it derived from an image keys on the image's identity together
// with its generation, so an image may be rewritten and installed again:
// attack arm builders pool one image per arm slot and rewrite it for
// every decision.
type Image struct {
	sections []section
	gen      uint64
}

// section is one named blob.
type section struct {
	name string
	data []byte
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{sections: make([]section, 0, 4)}
}

// find returns the index of name in the sorted section list, or the
// insertion point with found=false.
func (im *Image) find(name string) (int, bool) {
	for i := range im.sections {
		if im.sections[i].name == name {
			return i, true
		}
		if im.sections[i].name > name {
			return i, false
		}
	}
	return len(im.sections), false
}

// put stores data under name, keeping the list sorted.
func (im *Image) put(name string, data []byte) {
	im.gen++
	i, found := im.find(name)
	if found {
		im.sections[i].data = data
		return
	}
	im.sections = append(im.sections, section{})
	copy(im.sections[i+1:], im.sections[i:])
	im.sections[i] = section{name: name, data: data}
}

// Set stores a section, copying the data. Empty names are rejected at
// Marshal time; overwriting an existing section is allowed (that is what
// the attacker does), also on an image already installed: the write
// advances Gen.
func (im *Image) Set(name string, data []byte) {
	im.put(name, append([]byte(nil), data...))
}

// SetOwned stores a section WITHOUT copying: the image takes ownership
// of data and the caller must not mutate it until the section is
// overwritten again (by a write that advances Gen). Attack arm builders
// use it to share one marshaled blob (e.g. an unchanged ECC offset)
// across the arms of a hypothesis sweep, and to store pooled blobs they
// rewrite before each re-store.
func (im *Image) SetOwned(name string, data []byte) {
	im.put(name, data)
}

// SectionRO returns a section's content WITHOUT copying, for read-only
// parsing on hot paths. The caller must not mutate or retain the slice
// beyond the parse.
func (im *Image) SectionRO(name string) ([]byte, bool) {
	i, ok := im.find(name)
	if !ok {
		return nil, false
	}
	return im.sections[i].data, true
}

// Names returns the section names in sorted order.
func (im *Image) Names() []string {
	out := make([]string, 0, len(im.sections))
	for i := range im.sections {
		out = append(out, im.sections[i].name)
	}
	return out
}

// Delete removes a section if present.
func (im *Image) Delete(name string) {
	if i, ok := im.find(name); ok {
		im.sections = append(im.sections[:i], im.sections[i+1:]...)
		im.gen++
	}
}

// Gen returns the image's write generation: the number of section
// writes (Set, SetOwned, and Delete of a present section) so far. Equal
// generations of one image mean equal content, provided owned blobs are
// not mutated in place.
func (im *Image) Gen() uint64 { return im.gen }

// Len returns the number of sections.
func (im *Image) Len() int { return len(im.sections) }

// Marshal serializes the image with its trailing CRC. Sections are
// emitted in sorted name order so equal images produce equal bytes.
func (im *Image) Marshal() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, magic...)
	buf = append(buf, version)
	if len(im.sections) > 0xffff {
		return nil, fmt.Errorf("helperdata: %d sections exceed the format limit", len(im.sections))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(im.sections)))
	for _, s := range im.sections {
		if s.name == "" {
			return nil, errors.New("helperdata: empty section name")
		}
		if len(s.name) > 0xff {
			return nil, fmt.Errorf("helperdata: section name %q too long", s.name)
		}
		if len(s.data) > MaxSectionBytes {
			return nil, fmt.Errorf("helperdata: section %q exceeds %d bytes", s.name, MaxSectionBytes)
		}
		buf = append(buf, byte(len(s.name)))
		buf = append(buf, s.name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.data)))
		buf = append(buf, s.data...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Unmarshal parses and validates an NVM image. Errors are deliberately
// specific — the paper asks for precise parsing procedures.
func Unmarshal(raw []byte) (*Image, error) {
	if len(raw) < len(magic)+1+2+4 {
		return nil, errors.New("helperdata: image truncated")
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, errors.New("helperdata: checksum mismatch (NVM corruption)")
	}
	if string(body[:4]) != magic {
		return nil, fmt.Errorf("helperdata: bad magic %q", body[:4])
	}
	if body[4] != version {
		return nil, fmt.Errorf("helperdata: unsupported version %d", body[4])
	}
	count := int(binary.LittleEndian.Uint16(body[5:]))
	at := 7
	im := NewImage()
	for i := 0; i < count; i++ {
		if at >= len(body) {
			return nil, fmt.Errorf("helperdata: section %d header past end", i)
		}
		nameLen := int(body[at])
		at++
		if nameLen == 0 || at+nameLen+4 > len(body) {
			return nil, fmt.Errorf("helperdata: section %d name malformed", i)
		}
		name := string(body[at : at+nameLen])
		at += nameLen
		dataLen := int(binary.LittleEndian.Uint32(body[at:]))
		at += 4
		if dataLen > MaxSectionBytes || at+dataLen > len(body) {
			return nil, fmt.Errorf("helperdata: section %q length %d malformed", name, dataLen)
		}
		if _, dup := im.find(name); dup {
			return nil, fmt.Errorf("helperdata: duplicate section %q", name)
		}
		im.Set(name, body[at:at+dataLen])
		at += dataLen
	}
	if at != len(body) {
		return nil, fmt.Errorf("helperdata: %d trailing bytes", len(body)-at)
	}
	return im, nil
}

// Equal reports whether two images have identical sections. Both
// section lists are name-sorted, so the comparison is a single pairwise
// walk.
func (im *Image) Equal(other *Image) bool {
	if im.Len() != other.Len() {
		return false
	}
	for i := range im.sections {
		a, b := &im.sections[i], &other.sections[i]
		if a.name != b.name || len(a.data) != len(b.data) {
			return false
		}
		for j := range a.data {
			if a.data[j] != b.data[j] {
				return false
			}
		}
	}
	return true
}
