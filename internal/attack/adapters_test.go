package attack

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/helperdata"
	"repro/internal/tempco"
)

// TestRewrittenImageReinstalls pins the write cache's key: an image
// that was installed, then rewritten in place, must be written again
// when it is re-installed onto unchanged NVM — the device must show the
// new content, not the first install's. Pooled arm images rely on this.
// Each adapter's image has its offset overwritten with SetOwned (for
// tempco, whose offset lives inside its one helper blob, that blob).
func TestRewrittenImageReinstalls(t *testing.T) {
	offsetSection := func(im *helperdata.Image, off bitvec.Vector) {
		im.SetOwned(helperdata.SectionOffset, off.Append(nil))
	}
	seq := seqPairDevice(t, 3)
	tc := tempcoDevice(t, 50)
	gb := groupBasedDevice(t, 3)
	mask := maskingDevice(t, 3)
	cases := []struct {
		name   string
		tgt    Target
		set    func(*helperdata.Image, bitvec.Vector)
		offset func() bitvec.Vector
	}{
		{"seqpair", NewSeqPairTarget(seq), offsetSection, func() bitvec.Vector { return seq.ReadHelper().Offset }},
		{"tempco", NewTempCoTarget(tc), func(im *helperdata.Image, off bitvec.Vector) {
			var h tempco.Helper
			if err := tempCoInto(im, &h); err != nil {
				t.Fatal(err)
			}
			h.Offset = off
			im.SetOwned(helperdata.SectionTempCo, h.Append(nil))
		}, func() bitvec.Vector { return tc.ReadHelper().Offset }},
		{"groupbased", NewGroupBasedTarget(gb), offsetSection, func() bitvec.Vector { return gb.ReadHelper().Offset }},
		{"distiller", NewDistillerTarget(mask), offsetSection, func() bitvec.Vector { return mask.ReadHelper().Offset }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			im, err := c.tgt.ReadImage()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.tgt.WriteImage(im); err != nil {
				t.Fatal(err)
			}
			orig := c.offset()
			flipped := orig.Clone()
			flipped.Flip(0)
			// Rewrite, re-install, and rewrite back: each version must
			// reach the device although the image stays the same object.
			for i, want := range []bitvec.Vector{flipped, orig} {
				c.set(im, want)
				if err := c.tgt.WriteImage(im); err != nil {
					t.Fatal(err)
				}
				if got := c.offset(); !got.Equal(want) {
					t.Fatalf("rewrite %d: device offset %v after re-install, want %v", i, got, want)
				}
			}
		})
	}
}
