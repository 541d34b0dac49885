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
// superposition's coefficients, the hypothesis stream, the sketch (for
// sizing and polish), and per-arm offset blobs and predicted keys (arms
// of one decision are alive together, so the pools are indexed by arm).
// Images stay fresh per arm, because the adapters' caches key on image
// identity; their blobs may come from the pools because an arm's image
// is never re-installed after its decision.
type armScratch struct {
	code    ecc.Code
	inject  int
	compose func(poly, layout, offset []byte) *helperdata.Image

	polyBeta []float64
	poly     []byte // the decision's superimposed polynomial, marshaled
	layout   []byte // the decision's grouping or masking blob, or nil
	// stream is the callers' buffer for the next arm's predicted
	// response, filled before add.
	stream  bitvec.Vector
	needBlk []bool
	offBlob [][]byte
	predKey []bitvec.Vector
	sketch  ecc.Sketch
	// arms holds the decision's hypotheses in the order add built them.
	arms []Hypothesis
}

// decide starts a decision: it superimposes pattern on the original
// polynomial (which is only read), marshals the sum once for every arm
// image, and drops the previous decision's arms. layout is the
// decision's pairing-layout blob, shared by every arm image.
func (sc *armScratch) decide(orig, pattern distiller.Poly2D, layout []byte) {
	poly := orig.AddInto(pattern, sc.polyBeta)
	sc.polyBeta = poly.Beta
	sc.poly = poly.Marshal()
	sc.layout = layout
	sc.arms = sc.arms[:0]
}

// add crafts the next arm of the decision and appends its binding
// hypothesis to sc.arms. The code offset binds stream with the common
// error offset folded into every ECC block that holds a hypothesis bit:
// the block of targetPos, and those of hypBits when the decision
// enumerates several bits at once. Injections skip the hypothesis bits.
// The offset blob and the predicted key are pooled per arm; targets copy
// the key at BindKey.
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
	for len(sc.offBlob) <= arm {
		sc.offBlob = append(sc.offBlob, nil)
		sc.predKey = append(sc.predKey, bitvec.Vector{})
	}
	blob, err := injected.AppendBinary(sc.offBlob[arm][:0])
	if err != nil {
		return err
	}
	sc.offBlob[arm] = blob
	// The device recovers the stream the offset binds, the INJECTED
	// one, so that is the key the attacker predicts.
	predKey := scratchVec(&sc.predKey[arm], stream.Len())
	injected.SliceInto(0, stream.Len(), predKey)
	sc.arms = append(sc.arms, bindingHypothesis(sc.compose(sc.poly, sc.layout, blob), predKey))
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

// bindingHypothesis writes an image and binds the predicted key — the
// reprogrammed-key arm the arm builder hands out.
func bindingHypothesis(im *helperdata.Image, predKey bitvec.Vector) Hypothesis {
	return func(t Target) error {
		if err := t.WriteImage(im); err != nil {
			return err
		}
		if kb, ok := t.(KeyBinder); ok {
			kb.BindKey(predKey)
			return nil
		}
		return fmt.Errorf("attack: target %T cannot bind keys", t)
	}
}

// writeHypothesis writes an image and nothing else — the plain-write arm
// of the attacks whose observable is the enrolled key (seqpair, tempco).
// The image is built once, outside the arm, so re-installs across the
// arm's query run hit the adapters' identical-image write cache.
func writeHypothesis(im *helperdata.Image) Hypothesis {
	return func(t Target) error { return t.WriteImage(im) }
}

// scratchVec returns *v resized to n bits, reallocating only on growth.
// Contents are unspecified; callers overwrite the buffer fully.
func scratchVec(v *bitvec.Vector, n int) bitvec.Vector {
	if v.Len() != n {
		*v = v.Resized(n)
	}
	return *v
}

// resizeInts returns *buf resized to n elements, reallocating only on
// growth. Contents are unspecified.
func resizeInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// resizeBools is resizeInts for boolean flags.
func resizeBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
