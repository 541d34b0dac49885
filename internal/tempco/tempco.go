// Package tempco implements the temperature-aware cooperative RO PUF of
// Yin & Qu (HOST 2009), attacked in Section VI-B of the paper.
//
// Disjoint neighbor pairs are classified over a user-defined operating
// range [Tmin, Tmax] using a linear per-pair frequency-difference model
// ∆f(T) (Fig. 3 of the paper):
//
//   - good pairs keep |∆f(T)| above the threshold everywhere and yield
//     one reliable bit each;
//   - bad pairs never exceed the threshold and are discarded;
//   - cooperating pairs are reliable except inside a crossover interval
//     [Tl, Th]; there they borrow the bit of another cooperating pair
//     (with a non-intersecting interval), masked by a good pair's bit so
//     the helper reveals nothing — provided the helping pair is chosen
//     at random among the candidates satisfying the masking constraint,
//     which is exactly the leakage subtlety the paper points out.
//
// Helper NVM stores, per cooperating pair: Tl, Th, the mask (good) pair
// index and the helping (cooperating) pair index. Outside the interval
// the device compensates the crossover itself by inverting the measured
// bit when T > Th. All of it is attacker-writable.
package tempco

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// PairClass is the Fig. 3 classification of a pair.
type PairClass int

// Pair classes.
const (
	Good PairClass = iota
	Bad
	Cooperating
)

// String implements fmt.Stringer.
func (c PairClass) String() string {
	switch c {
	case Good:
		return "good"
	case Bad:
		return "bad"
	case Cooperating:
		return "cooperating"
	}
	return fmt.Sprintf("PairClass(%d)", int(c))
}

// PairInfo is the public helper record of one pair.
type PairInfo struct {
	Pair  pairing.Pair
	Class PairClass
	// Tl, Th bound the crossover interval; meaningful for Cooperating.
	Tl, Th float64
	// MaskIdx is the index (into the pair list) of the good pair whose
	// bit masks the cooperation; -1 when unused.
	MaskIdx int
	// HelpIdx is the index of the cooperating pair providing the bit
	// inside the interval; -1 when unused.
	HelpIdx int
}

// SelectionPolicy controls how the helping pair is chosen among the
// candidates satisfying the masking constraint rc1 XOR rg1 = rci.
type SelectionPolicy int

const (
	// RandomSelection draws uniformly among satisfying candidates — the
	// paper's requirement for leakage freedom.
	RandomSelection SelectionPolicy = iota
	// DeterministicSelection takes the first satisfying candidate in
	// index order. The paper: this "exposes the following information
	// for all non-selected candidates: rcj != rci". Included for the
	// leakage ablation.
	DeterministicSelection
)

// Params configures a temperature-aware cooperative PUF.
type Params struct {
	Rows, Cols   int
	ThresholdMHz float64
	// TminC, TmaxC bound the user-defined operating range.
	TminC, TmaxC float64
	// Policy selects the helping-pair selection strategy.
	Policy SelectionPolicy
	// Code is the final ECC over the response bits (paper §VI assumes
	// one for all constructions); the bit stream is padded to blocks.
	Code ecc.Code
	// EnrollReps is the per-extreme measurement averaging factor.
	EnrollReps int
	// Noise names the silicon measurement-noise model. Single-valued:
	// the zero value silicon.NoiseCounter is the only accepted model.
	Noise silicon.NoiseKind
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Rows < 1 || p.Cols < 1 {
		return fmt.Errorf("tempco: invalid layout %dx%d", p.Rows, p.Cols)
	}
	if p.ThresholdMHz <= 0 {
		return fmt.Errorf("tempco: threshold %v <= 0", p.ThresholdMHz)
	}
	if p.TminC >= p.TmaxC {
		return fmt.Errorf("tempco: empty operating range [%v,%v]", p.TminC, p.TmaxC)
	}
	if p.Code == nil {
		return errors.New("tempco: nil ECC")
	}
	if p.EnrollReps < 1 {
		return fmt.Errorf("tempco: enrollment reps %d < 1", p.EnrollReps)
	}
	return nil
}

// Helper is the construction's complete public helper data.
type Helper struct {
	Pairs  []PairInfo
	Offset bitvec.Vector
}

// ErrReconstructFailed is the observable reconstruction failure.
var ErrReconstructFailed = errors.New("tempco: key reconstruction failed")

// classify fits the two-point linear model ∆f(T) of one pair and returns
// its class and crossover interval within the operating range.
func classify(d0, d1, t0, t1, th, tmin, tmax float64) (PairClass, float64, float64) {
	slope := (d1 - d0) / (t1 - t0)
	at := func(t float64) float64 { return d0 + slope*(t-t0) }
	// |∆f(T)| <= th on the interval where the line is inside [-th, th].
	var lo, hi float64
	if math.Abs(slope) < 1e-12 {
		if math.Abs(d0) > th {
			return Good, 0, 0
		}
		return Bad, 0, 0
	}
	tAtMinus := t0 + (-th-d0)/slope
	tAtPlus := t0 + (th-d0)/slope
	lo, hi = math.Min(tAtMinus, tAtPlus), math.Max(tAtMinus, tAtPlus)
	if hi < tmin || lo > tmax {
		return Good, 0, 0
	}
	if lo <= tmin && hi >= tmax {
		return Bad, 0, 0
	}
	if lo <= tmin || hi >= tmax {
		// Unreliable region touches a range boundary: no stable
		// reference on one side. Discard.
		return Bad, 0, 0
	}
	// Sanity: a genuine crossover flips the sign across the interval.
	if at(tmin)*at(tmax) >= 0 {
		return Bad, 0, 0
	}
	return Cooperating, lo, hi
}

// Enroll measures the array at both operating extremes (the original
// proposal's procedure), classifies every disjoint neighbor pair, wires
// up the cooperation helper records, and computes the ECC offset over
// the reference response. Measurement noise comes from nm; src drives
// the non-measurement enrollment randomness (mask-order permutation,
// helping-pair selection, ECC offset draw).
func Enroll(a *silicon.Array, p Params, src *rng.Source, nm *silicon.Noise) (Helper, bitvec.Vector, error) {
	if err := p.Validate(); err != nil {
		return Helper{}, bitvec.Vector{}, err
	}
	v := a.Config().NominalVoltageV
	fMin := a.MeasureAveraged(silicon.Environment{TempC: p.TminC, VoltageV: v}, nm, p.EnrollReps)
	fMax := a.MeasureAveraged(silicon.Environment{TempC: p.TmaxC, VoltageV: v}, nm, p.EnrollReps)

	pairs := chainPairs(p.Rows, p.Cols)
	infos := make([]PairInfo, len(pairs))
	refBits := make([]bool, len(pairs)) // low-temperature-side reference
	// Sized once: a pair lands in at most one class list.
	goodIdx, coopIdx := make([]int, 0, len(pairs)), make([]int, 0, len(pairs))
	for i, pr := range pairs {
		d0 := fMin[pr.A] - fMin[pr.B]
		d1 := fMax[pr.A] - fMax[pr.B]
		class, tl, th := classify(d0, d1, p.TminC, p.TmaxC, p.ThresholdMHz, p.TminC, p.TmaxC)
		infos[i] = PairInfo{Pair: pr, Class: class, Tl: tl, Th: th, MaskIdx: -1, HelpIdx: -1}
		refBits[i] = d0 > 0
		switch class {
		case Good:
			goodIdx = append(goodIdx, i)
		case Cooperating:
			coopIdx = append(coopIdx, i)
		}
	}

	// Wire cooperation: each cooperating pair needs a good mask pair and
	// a helping cooperating pair with a non-intersecting interval whose
	// reference bit satisfies rc XOR rg = rci.
	if len(goodIdx) == 0 && len(coopIdx) > 0 {
		return Helper{}, bitvec.Vector{}, errors.New("tempco: no good pairs available for masking")
	}
	// One mask-order buffer and one candidate list serve every
	// cooperating pair.
	maskOrder, candidates := make([]int, len(goodIdx)), make([]int, 0, len(coopIdx))
	for _, c := range coopIdx {
		assigned := false
		// Try masks in random order so failures do not bias selection.
		src.Perm(maskOrder)
		for _, mi := range maskOrder {
			g := goodIdx[mi]
			want := refBits[c] != refBits[g] // rc XOR rg
			candidates = candidates[:0]
			for _, j := range coopIdx {
				if j == c {
					continue
				}
				if intervalsIntersect(infos[c].Tl, infos[c].Th, infos[j].Tl, infos[j].Th) {
					continue
				}
				if refBits[j] == want {
					candidates = append(candidates, j)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			pick := candidates[0]
			if p.Policy == RandomSelection {
				pick = candidates[src.Intn(len(candidates))]
			}
			infos[c].MaskIdx = g
			infos[c].HelpIdx = pick
			assigned = true
			break
		}
		if !assigned {
			// No viable cooperation: demote to bad.
			infos[c].Class = Bad
		}
	}

	resp := responseFromBits(infos, refBits)
	var sk ecc.Sketch
	sk.Size(p.Code, resp.Len())
	padded := sk.Stream()
	padded.PutAt(0, resp)
	offset := sk.Enroll(src)
	key := keyBits(infos, padded)
	return Helper{Pairs: infos, Offset: offset}, key, nil
}

// chainCache interns the disjoint chain pair list of each (rows, cols)
// geometry: it is fixed by the architecture, and Enroll only reads it.
var chainCache sync.Map // [2]int -> []pairing.Pair

func chainPairs(rows, cols int) []pairing.Pair {
	key := [2]int{rows, cols}
	if pairs, ok := chainCache.Load(key); ok {
		return pairs.([]pairing.Pair)
	}
	pairs, _ := chainCache.LoadOrStore(key, pairing.ChainPairs(rows, cols, true))
	return pairs.([]pairing.Pair)
}

func intervalsIntersect(al, ah, bl, bh float64) bool {
	return al <= bh && bl <= ah
}

// responseFromBits lays the reference bits of all pairs (bad pairs
// included as placeholder zeros, keeping indices aligned) into the ECC
// input stream.
func responseFromBits(infos []PairInfo, bits []bool) bitvec.Vector {
	out := bitvec.New(len(infos))
	for i, info := range infos {
		if info.Class == Bad {
			continue
		}
		out.Set(i, bits[i])
	}
	return out
}

// keyBits extracts the key from the (corrected) stream: the bits of good
// and cooperating pairs in pair order.
func keyBits(infos []PairInfo, stream bitvec.Vector) bitvec.Vector {
	n := 0
	for _, info := range infos {
		if info.Class != Bad {
			n++
		}
	}
	key := bitvec.New(n)
	at := 0
	for i, info := range infos {
		if info.Class == Bad {
			continue
		}
		key.Set(at, stream.Get(i))
		at++
	}
	return key
}

// resolveBit reconstructs the bit of pair i at temperature T from a
// fresh frequency snapshot, without cooperation (crossover compensation
// only): measured sign, inverted above Th.
func resolveBit(info PairInfo, f []float64, tempC float64) bool {
	b := pairing.ResponseBit(f, info.Pair)
	if info.Class == Cooperating && tempC > info.Th {
		b = !b
	}
	return b
}

// Scratch carries the reusable buffers of Reconstruct. A zero value
// is ready; a device keeps one per oracle and calls Invalidate when its
// helper NVM changes. Not safe for concurrent use — forks get their own
// zero Scratch.
type Scratch struct {
	// ro measures the oscillators of every pair a bit can derive from
	// (see compare); the §VI-B attack sweeps temperature, and the
	// readout follows the environment.
	ro silicon.Readout
	// helper-derived caches, valid while helperValid is set.
	helperValid bool
	keyLen      int
	// per-measurement state: the code-offset sketch, the padded stream
	// of the last reading (sketch-owned) and the key buffer.
	sketch ecc.Sketch
	stream bitvec.Vector
	key    bitvec.Vector
}

// Invalidate drops the helper-derived caches.
func (sc *Scratch) Invalidate() { sc.helperValid = false }

// InvalidateSilicon additionally drops the caches derived from the
// silicon array's contents (the readout's noise-free frequencies).
// Required on the device-pool path, where Array.Remanufactured changes
// the array's contents under the same pointer; buffer capacity is kept.
func (sc *Scratch) InvalidateSilicon() {
	sc.helperValid = false
	sc.ro.Reset()
}

// refresh (re)builds the helper-derived caches: validation, the key
// length, and the ECC geometry. The readout's split follows the helper.
func (sc *Scratch) refresh(a *silicon.Array, p Params, h *Helper) error {
	if err := ValidateHelper(*h, a.N()); err != nil {
		return err
	}
	sc.keyLen = 0
	for _, info := range h.Pairs {
		if info.Class != Bad {
			sc.keyLen++
		}
	}
	sc.ro.Invalidate()
	sc.sketch.Size(p.Code, len(h.Pairs))
	if sc.key.Len() != sc.keyLen {
		sc.key = bitvec.New(sc.keyLen)
	}
	sc.helperValid = true
	return nil
}

// compare records in the readout every comparison a bit can derive
// from: each non-bad pair, and the mask and helping pairs of each
// cooperating pair. Bad pairs contribute no bits, so their oscillators
// are never measured.
func (sc *Scratch) compare(h *Helper) {
	for _, info := range h.Pairs {
		if info.Class == Bad {
			continue
		}
		sc.ro.Compare(info.Pair.A, info.Pair.B)
		if info.Class == Cooperating {
			for _, ref := range [2]int{info.MaskIdx, info.HelpIdx} {
				sc.ro.Compare(h.Pairs[ref].Pair.A, h.Pairs[ref].Pair.B)
			}
		}
	}
	sc.ro.Split()
}

// Reconstruct regenerates the key at the given environment temperature
// from (possibly manipulated) helper data. Structural validation mirrors
// an honest device: index ranges and class tags are checked; the helping
// pair must be outside its own declared interval at the current
// temperature. Values of Tl/Th themselves are trusted — they are helper
// data, and that trust is what the paper's acceleration trick abuses.
//
// Only the helper-referenced oscillators are read, and noise is drawn
// only for those whose noise can change a comparison (silicon.Readout).
// The reconstruction runs in caller-owned scratch, the devices'
// per-query hot path: the returned key is scratch-owned and valid until
// the next call.
func Reconstruct(a *silicon.Array, p Params, h *Helper, env silicon.Environment, nm *silicon.Noise, sc *Scratch) (bitvec.Vector, error) {
	if !sc.helperValid {
		if err := sc.refresh(a, p, h); err != nil {
			return bitvec.Vector{}, err
		}
	}
	if sc.ro.Stale(a, env) {
		sc.compare(h)
	}
	f := sc.ro.Measure(nm)
	t := env.TempC
	bits := sc.sketch.Stream()
	sc.stream = bits
	for i, info := range h.Pairs {
		switch info.Class {
		case Bad:
			continue
		case Good:
			bits.Set(i, pairing.ResponseBit(f, info.Pair))
		case Cooperating:
			if t < info.Tl || t > info.Th {
				bits.Set(i, resolveBit(info, f, t))
				continue
			}
			// Inside the crossover interval: borrow the helping pair's
			// bit, unmasked by the good pair's bit.
			help := h.Pairs[info.HelpIdx]
			if t >= help.Tl && t <= help.Th {
				return bitvec.Vector{}, fmt.Errorf("tempco: helping pair %d unreliable at %v C: %w",
					info.HelpIdx, t, ErrReconstructFailed)
			}
			mask := h.Pairs[info.MaskIdx]
			bits.Set(i, resolveBit(help, f, t) != pairing.ResponseBit(f, mask.Pair))
		}
	}
	if bits.Len() != h.Offset.Len() {
		return bitvec.Vector{}, fmt.Errorf("tempco: offset length %d, stream %d", h.Offset.Len(), bits.Len())
	}
	corrected, _, ok := sc.sketch.Reproduce(h.Offset)
	if !ok {
		return bitvec.Vector{}, ErrReconstructFailed
	}
	keyAt := 0
	for i, info := range h.Pairs {
		if info.Class == Bad {
			continue
		}
		sc.key.Set(keyAt, corrected.Get(i))
		keyAt++
	}
	return sc.key, nil
}

// ValidateHelper applies the honest device's structural checks.
func ValidateHelper(h Helper, n int) error {
	for i, info := range h.Pairs {
		for _, v := range []int{info.Pair.A, info.Pair.B} {
			if v < 0 || v >= n {
				return fmt.Errorf("tempco: pair %d references oscillator %d of %d", i, v, n)
			}
		}
		if info.Class == Cooperating {
			if info.Tl > info.Th {
				return fmt.Errorf("tempco: pair %d has inverted interval", i)
			}
			if info.MaskIdx < 0 || info.MaskIdx >= len(h.Pairs) || h.Pairs[info.MaskIdx].Class != Good {
				return fmt.Errorf("tempco: pair %d mask index invalid", i)
			}
			if info.HelpIdx < 0 || info.HelpIdx >= len(h.Pairs) || h.Pairs[info.HelpIdx].Class != Cooperating || info.HelpIdx == i {
				return fmt.Errorf("tempco: pair %d help index invalid", i)
			}
		}
	}
	return nil
}

// CountClasses tallies the classification for reporting (Fig. 3 / E3).
func CountClasses(h Helper) (good, bad, coop int) {
	for _, info := range h.Pairs {
		switch info.Class {
		case Good:
			good++
		case Bad:
			bad++
		case Cooperating:
			coop++
		}
	}
	return
}

// --- NVM serialization ---

// helperRecord is the NVM size of one pair record: A and B (uint16),
// class (one byte), Tl and Th (float64 bits), MaskIdx and HelpIdx
// (int16).
const helperRecord = 2 + 2 + 1 + 8 + 8 + 2 + 2

// Append appends the helper's NVM encoding to dst and returns the
// extended slice: the pair count, one record per pair, then the offset
// in bitvec's encoding (a uint32 bit length and its packed bytes).
// Append(nil) allocates exactly once.
func (h Helper) Append(dst []byte) []byte {
	if need := len(dst) + 2 + len(h.Pairs)*helperRecord + 4 + (h.Offset.Len()+7)/8; cap(dst) < need {
		// One allocation in every build (see bitvec.Vector.Append).
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Pairs)))
	for _, info := range h.Pairs {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(info.Pair.A))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(info.Pair.B))
		dst = append(dst, byte(info.Class))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(info.Tl))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(info.Th))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(int16(info.MaskIdx)))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(int16(info.HelpIdx)))
	}
	return h.Offset.Append(dst)
}

// UnmarshalHelperInto parses Append's encoding into *dst, reusing its
// pair and offset storage when the capacity suffices. It accepts
// exactly the encodings Append produces (the offset ends the blob, so
// trailing bytes are rejected). On error *dst is left unchanged.
func UnmarshalHelperInto(dst *Helper, data []byte) error {
	if len(data) < 2 {
		return errors.New("tempco: helper truncated")
	}
	n := int(binary.LittleEndian.Uint16(data))
	at := 2
	if len(data) < at+n*helperRecord {
		return errors.New("tempco: helper truncated")
	}
	// The offset parses first, so a rejected one leaves *dst unchanged.
	if err := bitvec.UnmarshalVectorInto(&dst.Offset, data[at+n*helperRecord:]); err != nil {
		return fmt.Errorf("tempco: offset: %w", err)
	}
	if dst.Pairs == nil || cap(dst.Pairs) < n {
		dst.Pairs = make([]PairInfo, n)
	}
	dst.Pairs = dst.Pairs[:n]
	for i := range dst.Pairs {
		p := &dst.Pairs[i]
		p.Pair.A = int(binary.LittleEndian.Uint16(data[at:]))
		p.Pair.B = int(binary.LittleEndian.Uint16(data[at+2:]))
		p.Class = PairClass(data[at+4])
		p.Tl = math.Float64frombits(binary.LittleEndian.Uint64(data[at+5:]))
		p.Th = math.Float64frombits(binary.LittleEndian.Uint64(data[at+13:]))
		p.MaskIdx = int(int16(binary.LittleEndian.Uint16(data[at+21:])))
		p.HelpIdx = int(int16(binary.LittleEndian.Uint16(data[at+23:])))
		at += helperRecord
	}
	return nil
}
