package attack

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/helperdata"
)

// armScratch is the arm builder of the reprogrammed-key attacks
// (groupbased, masking, chain). Every decision they make has the same
// shape: superimpose a pattern on the enrolled distiller polynomial,
// craft one code offset per hypothesis with the common error offset
// folded into the hypothesis block, and bind the key each hypothesis
// predicts. The builder holds the run's constants (code, injected error
// count, the image layout) and pools what every decision rebuilds: the
// superposition's coefficients and its encoded blob, the hypothesis
// stream, the sketch (for sizing and polish), and one
// armSlot per arm (arms of one decision are alive together, so the
// slots are indexed by arm). A slot's image is rewritten by every
// decision that uses the slot; its write generation tells the adapters'
// write cache that it changed. A warm decision allocates nothing.
type armScratch struct {
	code    ecc.Code
	inject  int
	compose func(im *helperdata.Image, poly, layout, offset []byte)

	polyBeta []float64
	poly     []byte // the decision's superimposed polynomial, encoded
	layout   []byte // the decision plan's grouping or masking blob, or nil
	// stream is the callers' buffer for the next arm's predicted
	// response, filled before add.
	stream  bitvec.Vector
	needBlk []bool
	slots   []*armSlot
	sketch  ecc.Sketch
	// arms holds the decision's hypotheses in the order add built them.
	arms []Hypothesis
}

// armSlot is one pooled arm: its image, the section blob the arm
// rewrites for each decision (the code offset of a binding arm, the
// pair list or helper record blob of a plain-write one), the key a
// binding arm binds, and the Hypothesis that installs them, made once
// with the slot. Everything the image holds is rewritten, and stored
// again, before the slot's next install.
type armSlot struct {
	im      *helperdata.Image
	blob    []byte
	predKey bitvec.Vector
	hyp     Hypothesis
}

// newBindingSlot returns a slot whose Hypothesis writes the image and
// binds the predicted key — the reprogrammed-key arm.
func newBindingSlot() *armSlot {
	s := &armSlot{im: helperdata.NewImage()}
	s.hyp = s.bind
	return s
}

// newWriteSlot returns a slot whose Hypothesis writes the image and
// nothing else — the plain-write arm of the attacks whose observable is
// the enrolled key (seqpair, tempco).
func newWriteSlot() *armSlot {
	s := &armSlot{im: helperdata.NewImage()}
	s.hyp = s.write
	return s
}

func (s *armSlot) bind(t Target) error {
	if err := t.WriteImage(s.im); err != nil {
		return err
	}
	if kb, ok := t.(KeyBinder); ok {
		kb.BindKey(s.predKey)
		return nil
	}
	return fmt.Errorf("attack: target %T cannot bind keys", t)
}

func (s *armSlot) write(t Target) error { return t.WriteImage(s.im) }

// decide starts a decision: it superimposes pattern on the original
// polynomial (both only read), encodes the sum once for every arm
// image, and drops the previous decision's arms. layout is the
// decision's pairing-layout blob, shared by every arm image (nil for
// none); it comes from an interned plan, so it is only read.
func (sc *armScratch) decide(orig, pattern distiller.Poly2D, layout []byte) {
	poly := orig.AddInto(pattern, sc.polyBeta)
	sc.polyBeta = poly.Beta
	sc.poly = poly.Append(sc.poly[:0])
	sc.layout = layout
	sc.arms = sc.arms[:0]
}

// add crafts the next arm of the decision into its slot and appends its
// binding hypothesis to sc.arms. The code offset binds stream with the
// common error offset folded into every ECC block that holds a
// hypothesis bit: the block of targetPos, and those of hypBits when the
// decision enumerates several bits at once. Injections skip the
// hypothesis bits. Targets copy the predicted key at BindKey.
//
// The offset binds the injected stream to the zero codeword: it is the
// padded, injected stream itself. Any codeword would do the same, since
// every code here is linear and decodes from syndromes: Decode(c⊕e)
// gives the same (corrected, ok) as Decode(e) and, when ok, c XOR its
// output, so the device recovers injected XOR the decoded error
// whatever c is (FuzzDecode pins this).
func (sc *armScratch) add(stream bitvec.Vector, targetPos int, hypBits []int) error {
	n := sc.code.N()
	sk := &sc.sketch
	sk.Size(sc.code, stream.Len())
	blocks := sk.Blocks()
	injected := sk.Stream()
	injected.PutAt(0, stream)

	needBlk := resizeBools(&sc.needBlk, blocks)
	clear(needBlk)
	needBlk[targetPos/n] = true
	for _, hb := range hypBits {
		needBlk[hb/n] = true
	}
	avoid := func(pos int) bool { return pos == targetPos || slices.Contains(hypBits, pos) }
	for blk := 0; blk < blocks; blk++ {
		if !needBlk[blk] {
			continue
		}
		count := 0
		for pos := blk * n; pos < (blk+1)*n && pos < stream.Len() && count < sc.inject; pos++ {
			if avoid(pos) {
				continue
			}
			injected.Flip(pos)
			count++
		}
		if count < sc.inject {
			return fmt.Errorf("attack: block %d lacks injectable bits", blk)
		}
	}

	arm := len(sc.arms)
	for len(sc.slots) <= arm {
		sc.slots = append(sc.slots, newBindingSlot())
	}
	slot := sc.slots[arm]
	slot.blob = injected.Append(slot.blob[:0])
	// The device recovers the stream the offset binds, the INJECTED
	// one, so that is the key the attacker predicts.
	predKey := scratchVec(&slot.predKey, stream.Len())
	injected.SliceInto(0, stream.Len(), predKey)
	sc.compose(slot.im, sc.poly, sc.layout, slot.blob)
	sc.arms = append(sc.arms, slot.hyp)
	return nil
}

// polish exploits the device's ORIGINAL code-offset helper as a free
// offline oracle: it binds the enrolled response, so decoding the
// recovered key against it corrects any residual majority-vs-enrollment
// discrepancies on noise-marginal bits (up to t per block) without a
// single extra device query.
func (sc *armScratch) polish(key, offset bitvec.Vector) bitvec.Vector {
	if offset.Len() == 0 || offset.Len()%sc.code.N() != 0 || key.Len() > offset.Len() {
		return key
	}
	sc.sketch.Size(sc.code, offset.Len())
	sc.sketch.Stream().PutAt(0, key)
	if corrected, _, ok := sc.sketch.Reproduce(offset); ok {
		return corrected.Slice(0, key.Len())
	}
	return key
}

// scratchVec returns *v resized to n bits, reallocating only on growth.
// Contents are unspecified; callers overwrite the buffer fully.
func scratchVec(v *bitvec.Vector, n int) bitvec.Vector {
	if v.Len() != n {
		*v = v.Resized(n)
	}
	return *v
}

// resizeBools returns *buf resized to n elements, reallocating only on
// growth. Contents are unspecified.
func resizeBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
