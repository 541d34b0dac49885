package helperdata

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/distiller"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	im := NewImage()
	im.Set(SectionGrouping, []byte{1, 2, 3})
	im.Set(SectionOffset, []byte{0xff})
	im.Set(SectionPolynomial, nil) // empty section is legal
	raw, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(back) {
		t.Fatal("round trip mismatch")
	}
	if back.Len() != 3 {
		t.Fatalf("%d sections", back.Len())
	}
}

func TestDeterministicEncoding(t *testing.T) {
	a := NewImage()
	a.Set("zeta", []byte{1})
	a.Set("alpha", []byte{2})
	b := NewImage()
	b.Set("alpha", []byte{2})
	b.Set("zeta", []byte{1})
	ra, _ := a.Marshal()
	rb, _ := b.Marshal()
	if string(ra) != string(rb) {
		t.Fatal("insertion order leaked into the encoding")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	im := NewImage()
	im.Set("x", []byte{1, 2, 3, 4})
	raw, _ := im.Marshal()
	for i := 0; i < len(raw); i++ {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("ROPF"),
		[]byte("XXXX\x01\x00\x00\x00\x00\x00\x00"),
	}
	for i, raw := range cases {
		if _, err := Unmarshal(raw); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMarshalRejectsBadSections(t *testing.T) {
	im := NewImage()
	im.Set("", []byte{1})
	if _, err := im.Marshal(); err == nil {
		t.Fatal("empty name must be rejected")
	}
	im2 := NewImage()
	im2.Set(strings.Repeat("n", 300), nil)
	if _, err := im2.Marshal(); err == nil {
		t.Fatal("overlong name must be rejected")
	}
}

func TestSectionAccessors(t *testing.T) {
	im := NewImage()
	src := []byte{9}
	im.Set("a", src)
	if _, ok := im.SectionRO("missing"); ok {
		t.Fatal("missing section reported present")
	}
	// Set copies: a later change to the caller's slice does not reach
	// the image.
	src[0] = 0
	d, ok := im.SectionRO("a")
	if !ok || len(d) != 1 || d[0] != 9 {
		t.Fatal("section content wrong")
	}
	im.Delete("a")
	if im.Len() != 0 {
		t.Fatal("delete failed")
	}
}

// TestBundlesConstructionHelpers exercises the intended use: packing a
// full group-based helper set into one NVM image and back.
func TestBundlesConstructionHelpers(t *testing.T) {
	poly := distiller.QuadraticValleyX(4.5, 2)
	f := []float64{9, 7, 5, 3, 1}
	g := groupbased.GroupLimited(f, 1, len(f))
	pairsHelper := pairing.SeqPairHelper{Pairs: []pairing.Pair{{A: 0, B: 3}, {A: 1, B: 4}}}

	im := NewImage()
	im.Set(SectionPolynomial, poly.Append(nil))
	im.Set(SectionGrouping, g.Append(nil))
	im.Set(SectionSeqPairs, pairsHelper.Append(nil))
	raw, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	pb, _ := back.SectionRO(SectionPolynomial)
	var poly2 distiller.Poly2D
	if err := distiller.UnmarshalInto(&poly2, pb); err != nil {
		t.Fatal(err)
	}
	if poly2.Eval(3, 1) != poly.Eval(3, 1) {
		t.Fatal("polynomial did not survive the image")
	}
	gb, _ := back.SectionRO(SectionGrouping)
	var g2 groupbased.Grouping
	if err := groupbased.UnmarshalGroupingInto(&g2, gb); err != nil {
		t.Fatal(err)
	}
	for i := range g.Assign {
		if g2.Assign[i] != g.Assign[i] {
			t.Fatal("grouping did not survive the image")
		}
	}
	sb, _ := back.SectionRO(SectionSeqPairs)
	var p2 pairing.SeqPairHelper
	if err := pairing.UnmarshalSeqPairInto(&p2, sb); err != nil {
		t.Fatal(err)
	}
	if p2.Pairs[1] != pairsHelper.Pairs[1] {
		t.Fatal("pair list did not survive the image")
	}
}

// Property: any set of random sections round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		im := NewImage()
		count := int(n)%8 + 1
		for i := 0; i < count; i++ {
			name := string(rune('a'+i)) + "sec"
			data := make([]byte, r.Intn(64))
			for j := range data {
				data[j] = byte(r.Uint64())
			}
			im.Set(name, data)
		}
		raw, err := im.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(raw)
		return err == nil && im.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEqualSemantics(t *testing.T) {
	a := NewImage()
	a.Set("x", []byte{1})
	b := NewImage()
	b.Set("x", []byte{2})
	if a.Equal(b) {
		t.Fatal("different content compared equal")
	}
	c := NewImage()
	c.Set("y", []byte{1})
	if a.Equal(c) {
		t.Fatal("different names compared equal")
	}
}

// TestGenCountsSectionWrites pins the write generation consumers key
// their memoization on: every Set, SetOwned and Delete of a present
// section advances it; reads and a Delete of an absent section do not.
func TestGenCountsSectionWrites(t *testing.T) {
	im := NewImage()
	if im.Gen() != 0 {
		t.Fatalf("fresh image at generation %d", im.Gen())
	}
	steps := []struct {
		name    string
		write   func()
		advance bool
	}{
		{"Set new", func() { im.Set(SectionOffset, []byte{1}) }, true},
		{"Set same bytes", func() { im.Set(SectionOffset, []byte{1}) }, true},
		{"SetOwned", func() { im.SetOwned(SectionGrouping, []byte{2}) }, true},
		{"read", func() { im.SectionRO(SectionOffset); im.SectionRO(SectionGrouping); im.Names() }, false},
		{"Delete absent", func() { im.Delete(SectionMasking) }, false},
		{"Delete present", func() { im.Delete(SectionGrouping) }, true},
	}
	for _, s := range steps {
		before := im.Gen()
		s.write()
		if got := im.Gen() != before; got != s.advance {
			t.Fatalf("%s: generation %d -> %d, want advance=%v", s.name, before, im.Gen(), s.advance)
		}
	}
}
