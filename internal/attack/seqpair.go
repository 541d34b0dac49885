package attack

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/helperdata"
	"repro/internal/pairing"
)

func init() { Register(seqPairAttack{}) }

// SeqPairDetails is the seqpair attack's Report payload.
type SeqPairDetails struct {
	// Relations[j] reports r_j != r_0 for pair j (index 0 is the
	// reference and always false).
	Relations []bool
	// Calibration echoes the measured reference rates.
	Calibration Calibration
}

// seqPairAttack is the paper's §VI-A key recovery against a deployed
// sequential-pairing (LISA) device.
//
// Hypotheses H0: r_0 = r_j, H1: r_0 != r_j are distinguished by swapping
// the POSITIONS of pairs 0 and j in the helper list, which injects two
// bit errors exactly when the bits differ. The common offset uses
// within-pair order swaps — each inverts one response bit
// deterministically and value-independently ("one can select these pairs
// which will introduce a pair of erroneous bits for sure" generalizes to
// this cheaper injector once the storage format compares stored order).
// The final complement decision compares the consistency of the two
// candidate keys with crafted sets of ECC helper data.
type seqPairAttack struct{}

func (seqPairAttack) Name() string { return "seqpair" }
func (seqPairAttack) Description() string {
	return "§VI-A sequential-pairing (LISA) full key recovery"
}

func (a seqPairAttack) Run(ctx context.Context, t Target, opts Options) (Report, error) {
	spec := t.Spec()
	originalImage, err := t.ReadImage()
	if err != nil {
		return Report{}, err
	}
	original, origOffset, err := SeqPairFromImage(originalImage)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = t.WriteImage(originalImage) }() // leave the device as found

	m := len(original.Pairs)
	code := spec.Code
	opts.clampInject(code)
	blockLen := code.N()
	// Every test focuses on ECC block 0: the reference pair 0 lives
	// there, and injections must share its block to add up.
	inBlock0 := min(blockLen, m)
	if inBlock0 < opts.InjectErrors+2 {
		return Report{}, fmt.Errorf("attack: block 0 holds %d pairs, need %d for injection",
			inBlock0, opts.InjectErrors+2)
	}

	budget := NewBudget(opts.QueryBudget)
	startQueries := t.Queries()
	tr := newTracer(a.Name(), t, opts)

	// imageWith derives a helper image from the original by swapping the
	// within-pair order at positions `invert` and swapping the list
	// positions of pairs a and b (a == b means no position swap). Every
	// arm of the sweep shares the untouched offset blob, marshaled once.
	// The manipulated list is built in one reused slice and encoded into
	// buf (appended from its start), so the relation sweep can pool one
	// buffer for its transient swap arms.
	offsetBytes, err := origOffset.MarshalBinary()
	if err != nil {
		return Report{}, err
	}
	var list []pairing.Pair
	imageWith := func(buf []byte, invert []int, a, b int) (*helperdata.Image, []byte) {
		list = append(list[:0], original.Pairs...)
		for _, i := range invert {
			list[i] = list[i].Swapped()
		}
		list[a], list[b] = list[b], list[a]
		buf = pairing.SeqPairHelper{Pairs: list}.Append(buf)
		return seqPairImage(buf, offsetBytes), buf
	}
	install := func(invert []int, a, b int) Hypothesis {
		im, _ := imageWith(nil, invert, a, b)
		return writeHypothesis(im)
	}
	// The reference arm's injection set — and so its image — repeats
	// across most relation decisions; memoize it per distinct set so the
	// adapters' parse cache sees a stable image identity.
	refArms := make(map[int]Hypothesis)
	refInstall := func(inj []int, j int) Hypothesis {
		key := j
		if j > opts.InjectErrors {
			key = -1
		}
		if h, ok := refArms[key]; ok {
			return h
		}
		h := install(inj, 0, 0)
		refArms[key] = h
		return h
	}

	// injectionSet fills dst (from its start) with opts.InjectErrors
	// positions inside block 0 avoiding the two pairs under test (-1 =
	// avoid nothing); the relation sweep reuses one buffer across its
	// m-1 decisions.
	injectionSet := func(dst []int, avoidA, avoidB int) []int {
		dst = dst[:0]
		for p := 0; p < inBlock0 && len(dst) < opts.InjectErrors; p++ {
			if p != avoidA && p != avoidB {
				dst = append(dst, p)
			}
		}
		return dst
	}

	// Calibration: rates at offset and offset+1 errors, all via
	// value-independent within-pair swaps.
	tr.phase("calibrate")
	calNom := injectionSet(make([]int, 0, opts.InjectErrors+1), -1, -1)
	calElev := injectionSet(make([]int, 0, opts.InjectErrors+1), -1, -1)
	for p := 0; p < inBlock0; p++ {
		if !slices.Contains(calElev, p) {
			calElev = append(calElev, p)
			break
		}
	}
	cal, err := calibrate(ctx, t, install(calNom, 0, 0), install(calElev, 0, 0), calibrationQueries, budget)
	if err != nil {
		return Report{}, err
	}
	dist := cal.Apply(opts.Dist)

	// Relation recovery: for each j, arm A = injections + position swap
	// of pairs 0 and j, arm B = injections only (H0-like reference).
	// The swap arm of decision j is never re-installed after the
	// decision, so its pair-list blob comes from a pooled buffer; the
	// memoized reference arms keep their own blobs.
	tr.phase("relations")
	relations := make([]bool, m)
	var inj []int
	var swapBuf []byte
	for j := 1; j < m; j++ {
		inj = injectionSet(inj, 0, j)
		swapIm, buf := imageWith(swapBuf[:0], inj, 0, j)
		swapBuf = buf
		swapArm := writeHypothesis(swapIm)
		// Arms ordered so index 0 = "bits equal" (swap is a no-op on
		// the key, failure stays nominal) — for the swap arm. The
		// reference arm identifies the nominal level; Best picks the
		// arm behaving nominally. If the swap arm is nominal, bits are
		// equal.
		best, _, err := dist.BestHypotheses(ctx, t, []Hypothesis{
			swapArm,            // swap arm
			refInstall(inj, j), // reference arm
		}, budget)
		if err != nil {
			return Report{}, fmt.Errorf("attack: pair %d: %w", j, err)
		}
		if best < 0 {
			return Report{}, fmt.Errorf("attack: pair %d: %w", j, ErrNoArms)
		}
		relations[j] = best != 0 // swap arm elevated => bits differ
		tr.step("relations", j, m-1)
	}

	// Assemble the two key candidates.
	tr.phase("complement")
	cand0 := bitvec.New(m)
	for j := 1; j < m; j++ {
		cand0.Set(j, relations[j]) // assumes r_0 = 0
	}
	cand1 := cand0.Not()

	// Complement decision. Offline first: check code-offset consistency
	// of both candidates against the original ECC helper.
	key, ambiguous := resolveComplement(code, origOffset, cand0, cand1)

	rep := tr.report(startQueries)
	rep.Key = key
	rep.Ambiguous = ambiguous
	rep.Details = SeqPairDetails{Relations: relations, Calibration: cal}
	return rep, nil
}

// resolveComplement implements the paper's final decision: "the
// performance of two corresponding sets of ECC helper data can be
// compared". The offline consistency check against the original offset
// decides whenever the deployed code excludes the relevant all-ones
// pattern; otherwise the two candidates are information-theoretically
// indistinguishable through this oracle and the result stays ambiguous.
func resolveComplement(code ecc.Code, offset bitvec.Vector, cand0, cand1 bitvec.Vector) (bitvec.Vector, bool) {
	var sk ecc.Sketch
	sk.Size(code, offset.Len())
	ok0 := consistent(&sk, offset, cand0)
	ok1 := consistent(&sk, offset, cand1)
	switch {
	case ok0 && !ok1:
		return cand0, false
	case ok1 && !ok0:
		return cand1, false
	default:
		// Both consistent (all-ones pattern is a codeword) or neither
		// (some relation decided wrongly): query-based comparison of
		// crafted helper sets cannot separate the former case either;
		// return the r_0=0 candidate and flag it.
		return cand0, true
	}
}

// consistent reports whether candidate could be the enrolled response
// for offset, which sk is sized for: offset XOR the zero-padded
// candidate must be a codeword, i.e. decode to itself with zero
// corrections. An offset that is not a whole number of blocks, or is
// shorter than the candidate, binds no candidate.
func consistent(sk *ecc.Sketch, offset, candidate bitvec.Vector) bool {
	if sk.Len() != offset.Len() || candidate.Len() > offset.Len() {
		return false
	}
	stream := sk.Stream()
	stream.PutAt(0, candidate)
	recovered, corrected, ok := sk.Reproduce(offset)
	return ok && corrected == 0 && recovered.Equal(stream)
}
