package groupbased

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// Params configures a group-based RO PUF instance (Fig. 4).
type Params struct {
	// Rows, Cols give the RO array layout.
	Rows, Cols int
	// Degree is the entropy-distiller polynomial degree (paper: 2 or 3).
	Degree int
	// ThresholdMHz is the grouping discrepancy threshold ∆fth.
	ThresholdMHz float64
	// MaxGroupSize caps the grouping algorithm's group size (0 means a
	// default of 12); the Kendall workload is quadratic in it.
	MaxGroupSize int
	// Code is the per-block ECC; the Kendall bitstream is padded with
	// zeros to a whole number of blocks.
	Code ecc.Code
	// EnrollReps is the measurement-averaging factor at enrollment.
	EnrollReps int
	// Noise names the silicon measurement-noise model. Single-valued:
	// the zero value silicon.NoiseCounter is the only accepted model.
	Noise silicon.NoiseKind
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Rows < 1 || p.Cols < 1 {
		return fmt.Errorf("groupbased: invalid layout %dx%d", p.Rows, p.Cols)
	}
	if p.Degree < 0 {
		return fmt.Errorf("groupbased: negative distiller degree")
	}
	if p.ThresholdMHz < 0 {
		return fmt.Errorf("groupbased: negative threshold")
	}
	if p.Code == nil {
		return errors.New("groupbased: nil ECC")
	}
	if p.EnrollReps < 1 {
		return fmt.Errorf("groupbased: enrollment reps %d < 1", p.EnrollReps)
	}
	if p.MaxGroupSize < 0 || p.MaxGroupSize > 20 {
		return fmt.Errorf("groupbased: max group size %d outside [0,20]", p.MaxGroupSize)
	}
	return nil
}

// maxGroupSize resolves the configured cap, defaulting to 12.
func (p Params) maxGroupSize() int {
	if p.MaxGroupSize == 0 {
		return 12
	}
	return p.MaxGroupSize
}

// Helper is the complete public helper data of the construction,
// mirroring the NVM box of Fig. 4: polynomial coefficients, group
// information and ECC redundancy.
type Helper struct {
	Poly     distiller.Poly2D
	Grouping Grouping
	// Offset is the code-offset redundancy over the padded Kendall
	// bitstream; its length fixes the expected stream length.
	Offset bitvec.Vector
}

// ErrReconstructFailed is returned when the device cannot regenerate a
// key: the ECC reports an uncorrectable block or the corrected stream is
// not a valid Kendall coding. This is the observable event the paper's
// attacks count.
var ErrReconstructFailed = errors.New("groupbased: key reconstruction failed")

// KendallStream codes the per-group frequency orders of a residual
// snapshot into the concatenated Kendall bitstream (groups in id order;
// singleton groups contribute no bits).
func KendallStream(g *Grouping, residuals []float64) bitvec.Vector {
	out := bitvec.New(0)
	for _, members := range g.Members() {
		if len(members) < 2 {
			continue
		}
		out = out.Concat(perm.KendallEncode(groupOrder(members, residuals)))
	}
	return out
}

// groupOrder returns the descending-residual order of a group's members
// in label space: labels are positions in the ascending-index member
// list.
func groupOrder(members []int, residuals []float64) []int {
	vals := make([]float64, len(members))
	for l, ro := range members {
		vals[l] = residuals[ro]
	}
	return perm.OrderOf(vals)
}

// PackKey converts an error-corrected Kendall stream into the secret key:
// per group, decode the Kendall bits to an order and append its compact
// coding (the entropy-packing step of Fig. 4). An invalid (non-
// transitive) group coding fails the whole reconstruction.
func PackKey(g *Grouping, stream bitvec.Vector) (bitvec.Vector, error) {
	var sc perm.Scratch
	members := g.Members()
	key := bitvec.New(keyLen(members))
	at, keyAt := 0, 0
	for id, group := range members {
		n := len(group)
		if n < 2 {
			continue
		}
		bits := perm.KendallBits(n)
		if at+bits > stream.Len() {
			return bitvec.Vector{}, fmt.Errorf("groupbased: stream exhausted at group %d: %w", id, ErrReconstructFailed)
		}
		order, err := sc.KendallDecodeAt(stream, at, n)
		if err != nil {
			return bitvec.Vector{}, fmt.Errorf("groupbased: group %d: %v: %w", id, err, ErrReconstructFailed)
		}
		sc.CompactEncodeAt(key, keyAt, order)
		keyAt += perm.CompactBits(n)
		at += bits
	}
	return key, nil
}

// StreamLen returns the Kendall bitstream length of a grouping.
func StreamLen(g *Grouping) int {
	total := 0
	for _, members := range g.Members() {
		total += perm.KendallBits(len(members))
	}
	return total
}

// KeyLen returns the packed key length of a grouping.
func KeyLen(g *Grouping) int { return keyLen(g.Members()) }

func keyLen(members [][]int) int {
	total := 0
	for _, group := range members {
		if len(group) >= 2 {
			total += perm.CompactBits(len(group))
		}
	}
	return total
}

// Entropy returns sum log2(|Gj|!), the response entropy of the grouping
// (paper §V-B).
func Entropy(g *Grouping) float64 {
	var s float64
	for _, members := range g.Members() {
		s += perm.Log2Factorial(len(members))
	}
	return s
}

// Enroll manufactures the helper data and enrolled key of a device.
// Measurement noise comes from nm; src drives the code-offset draw.
// Enrollment runs in the caller's reconstruction scratch sc, as a query
// does: the distiller surface is evaluated into its grid and the
// grouping laid out once, so the first Reconstruct with the enrolled
// helper reuses both. The returned helper and key are caller-owned.
func Enroll(a *silicon.Array, p Params, src *rng.Source, nm *silicon.Noise, sc *Scratch) (Helper, bitvec.Vector, error) {
	if err := p.Validate(); err != nil {
		return Helper{}, bitvec.Vector{}, err
	}
	env := a.Config().NominalEnv()
	f := a.MeasureAveraged(env, nm, p.EnrollReps)
	poly, err := distiller.Fit(p.Rows, p.Cols, f, p.Degree)
	if err != nil {
		return Helper{}, bitvec.Vector{}, err
	}
	// a holds fresh silicon, possibly under a pointer sc has seen.
	sc.InvalidateSilicon()
	grid, _ := sc.grid.Eval(poly, p.Rows, p.Cols)
	sc.ro.SetOffsets(grid)
	residuals := distiller.DistillWithGrid(nil, f, grid)
	grouping := GroupLimited(residuals, p.ThresholdMHz, p.maxGroupSize())
	// Code the grouping as a query does: the member lists are laid out
	// once, and the per-group orders go straight into the sketch's
	// padded stream.
	if err := sc.Layout(&grouping, a.N()); err != nil {
		return Helper{}, bitvec.Vector{}, fmt.Errorf("groupbased: enrollment grouping: %w", err)
	}
	sc.sketch.Size(p.Code, sc.streamLen)
	padded := sc.sketch.Stream()
	sc.encode(residuals, padded)
	offset := sc.sketch.Enroll(src).Clone()
	sc.key = sc.key.Resized(sc.keyLen)
	key, err := sc.packKeyInto(padded)
	if err != nil {
		return Helper{}, bitvec.Vector{}, fmt.Errorf("groupbased: enrollment self-check: %w", err)
	}
	return Helper{Poly: poly, Grouping: grouping, Offset: offset}, key.Clone(), nil
}

// Scratch carries the reusable buffers of Reconstruct. A zero value
// is ready; a device keeps one per oracle and calls Invalidate whenever
// its helper NVM changes so the helper-derived caches (validation,
// member lists, distiller surface, stream geometry) are rebuilt. Not
// safe for concurrent use.
type Scratch struct {
	grid distiller.Grid
	// ro reads the distilled residuals and draws noise only where it
	// can change an order within a group of two or more members (the
	// only residuals the Kendall coding reads); resid is the last
	// reading.
	ro    silicon.Readout
	resid []float64
	// helper-derived caches, valid while helperValid is set.
	helperValid bool
	// members holds every group's members, group after group in id
	// order and ascending RO index within a group (the canonical label
	// order); group id is members[starts[id]:starts[id+1]]. next is the
	// fill cursor of layout.
	members   []int
	starts    []int
	next      []int
	streamLen int
	keyLen    int
	// per-measurement state: the code-offset sketch, the padded stream
	// of the last reading (sketch-owned) and the key buffer.
	sketch    ecc.Sketch
	stream    bitvec.Vector
	key       bitvec.Vector
	perm      perm.Scratch
	groupVals []float64
	// content fingerprint: a helper write that repeats the previous
	// grouping (an attack arm's hypothesis sweep varies only the ECC
	// offset) skips revalidation and the member-list rebuild, whose
	// outcomes are pure functions of that content; grid does the same
	// for the polynomial.
	groupsValid bool
	lastAssign  []int
}

// Invalidate drops the helper-derived caches; the next Prepare or
// Reconstruct revalidates and rebuilds them.
func (sc *Scratch) Invalidate() { sc.helperValid = false }

// InvalidateSilicon additionally drops the caches derived from the
// silicon array's contents (the readout's noise-free frequencies).
// Required on the device-pool path, where Array.Remanufactured changes
// the array's contents under the same pointer; buffer capacity and the
// helper-content fingerprints are kept (those are pure functions of
// helper content, not of the silicon).
func (sc *Scratch) InvalidateSilicon() {
	sc.helperValid = false
	sc.ro.Reset()
}

// group returns the members of group id, ascending.
func (sc *Scratch) group(id int) []int { return sc.members[sc.starts[id]:sc.starts[id+1]] }

// numGroups returns the group count of the laid-out grouping.
func (sc *Scratch) numGroups() int { return len(sc.starts) - 1 }

// layout validates a grouping of n oscillators and rebuilds, in
// scratch-owned buffers, everything Reconstruct derives from it: the
// member lists and the stream and key lengths. Its passes detect every
// fault Grouping.Validate checks for and return Validate's error for
// it; a valid grouping costs no allocation once the buffers have grown.
// On error the grouping caches are left invalid.
func (sc *Scratch) layout(assign []int, n int) error {
	sc.groupsValid = false
	num := 0
	for _, id := range assign {
		num = max(num, id+1)
	}
	// n oscillators fill at most n groups, so num > n means a fault —
	// caught before the buffers below grow to an untrusted id.
	if len(assign) != n || num == 0 || num > n {
		return validateGrouping(assign, n)
	}
	// Counting sort by group id: sizes into starts[id+1], checked and
	// summed into stream and key lengths, then prefix-summed.
	starts := resizeInts(&sc.starts, num+1)
	clear(starts)
	for _, id := range assign {
		if id < 0 {
			return validateGrouping(assign, n)
		}
		starts[id+1]++
	}
	sc.streamLen, sc.keyLen = 0, 0
	for id := range num {
		size := starts[id+1]
		if size == 0 {
			return validateGrouping(assign, n)
		}
		if size >= 2 {
			sc.streamLen += perm.KendallBits(size)
			sc.keyLen += perm.CompactBits(size)
		}
		starts[id+1] += starts[id]
	}
	// One ascending pass fills the member lists in RO order.
	members := resizeInts(&sc.members, n)
	next := append(sc.next[:0], starts[:num]...)
	sc.next = next
	for ro, id := range assign {
		members[next[id]] = ro
		next[id]++
	}
	sc.lastAssign = append(sc.lastAssign[:0], assign...)
	sc.groupsValid = true
	return nil
}

// validateGrouping reports the fault of a malformed assignment.
func validateGrouping(assign []int, n int) error {
	g := Grouping{Assign: assign}
	return g.Validate(n)
}

// Layout validates g for n oscillators, returning Grouping.Validate's
// error for a malformed one, and lays it out in the scratch unless it
// is the grouping laid out last. It allocates nothing once the buffers
// have grown, so a device validates a written grouping through its
// scratch; the Prepare or Reconstruct of a helper holding g then reuses
// the layout. A new grouping drops the helper-derived caches.
func (sc *Scratch) Layout(g *Grouping, n int) error {
	if sc.groupsValid && slices.Equal(sc.lastAssign, g.Assign) {
		return nil
	}
	sc.helperValid = false
	sc.ro.Invalidate()
	return sc.layout(g.Assign, n)
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

// refresh (re)builds the helper-derived caches, mirroring the structural
// validation order of the legacy Reconstruct so failure modes and their
// errors are unchanged.
func (sc *Scratch) refresh(a *silicon.Array, p Params, h *Helper) error {
	if err := sc.Layout(&h.Grouping, a.N()); err != nil {
		return err
	}
	if h.Offset.Len()%p.Code.N() != 0 || h.Offset.Len() == 0 {
		return fmt.Errorf("groupbased: offset length %d not a block multiple", h.Offset.Len())
	}
	if sc.streamLen > h.Offset.Len() {
		return fmt.Errorf("groupbased: offset too short for grouping stream")
	}
	if grid, changed := sc.grid.Eval(h.Poly, p.Rows, p.Cols); changed {
		sc.ro.SetOffsets(grid)
	}
	sc.sketch.Size(p.Code, sc.streamLen)
	if sc.key.Len() != sc.keyLen {
		sc.key = sc.key.Resized(sc.keyLen)
	}
	sc.helperValid = true
	return nil
}

// Prepare runs the part of Reconstruct that needs no measurement: the
// honest device's structural validation of the helper and the rebuild of
// the helper-derived caches in sc. A helper that fails here fails every
// Reconstruct without drawing noise; one that passes makes the next
// Reconstruct measure.
func Prepare(a *silicon.Array, p Params, h *Helper, sc *Scratch) error {
	if sc.helperValid {
		return nil
	}
	return sc.refresh(a, p, h)
}

// Reconstruct regenerates the key from one fresh measurement in the given
// environment using (possibly attacker-controlled) helper data. It
// performs the honest device's structural validation, then follows the
// helper blindly — the paper's threat model.
//
// The residuals come from a silicon.Readout, which draws noise only
// for the oscillators whose noise can change an order within their
// group of two or more members: the order comes from a comparison sort
// (perm.OrderInto), so fixed pairwise outcomes fix it. This is the hot
// path the devices run per oracle query, free of steady-state
// allocations, in caller-owned scratch: the returned key is
// scratch-owned and valid until the next call; clone it to retain it.
func Reconstruct(a *silicon.Array, p Params, h *Helper, env silicon.Environment, nm *silicon.Noise, sc *Scratch) (bitvec.Vector, error) {
	if err := Prepare(a, p, h, sc); err != nil {
		return bitvec.Vector{}, err
	}
	if sc.ro.Stale(a, env) {
		for id := range sc.numGroups() {
			if members := sc.group(id); len(members) >= 2 {
				sc.ro.CompareAll(members)
			}
		}
		sc.ro.Split()
	}
	sc.resid = sc.ro.Measure(nm)
	stream := sc.sketch.Stream()
	sc.stream = stream
	sc.encode(sc.resid, stream)
	if stream.Len() != h.Offset.Len() {
		return bitvec.Vector{}, fmt.Errorf("groupbased: stream/offset length mismatch %d vs %d", stream.Len(), h.Offset.Len())
	}
	corrected, _, ok := sc.sketch.Reproduce(h.Offset)
	if !ok {
		return bitvec.Vector{}, ErrReconstructFailed
	}
	return sc.packKeyInto(corrected)
}

// encode Kendall-codes the per-group orders of resid into stream, groups
// in id order from bit 0 (KendallStream without its allocations), using
// the laid-out member lists.
func (sc *Scratch) encode(resid []float64, stream bitvec.Vector) {
	at := 0
	for id := range sc.numGroups() {
		members := sc.group(id)
		switch len(members) {
		case 0, 1:
			continue
		case 2:
			// The pair's one Kendall bit: label 1 precedes label 0.
			stream.Set(at, resid[members[1]] > resid[members[0]])
			at++
			continue
		}
		vals := sc.groupVals
		if cap(vals) < len(members) {
			vals = make([]float64, len(members))
		}
		vals = vals[:len(members)]
		sc.groupVals = vals
		for l, ro := range members {
			vals[l] = resid[ro]
		}
		order := sc.perm.OrderInto(vals)
		sc.perm.KendallEncodeAt(stream, at, order)
		at += perm.KendallBits(len(members))
	}
}

// packKeyInto is PackKey into the scratch key buffer, using the cached
// member lists and stream offsets. A two-member group's Kendall bit is
// its compact coding, so it is copied as the key bit.
func (sc *Scratch) packKeyInto(stream bitvec.Vector) (bitvec.Vector, error) {
	at, keyAt := 0, 0
	for id := range sc.numGroups() {
		n := sc.starts[id+1] - sc.starts[id]
		if n < 2 {
			continue
		}
		bits := perm.KendallBits(n)
		if at+bits > stream.Len() {
			return bitvec.Vector{}, fmt.Errorf("groupbased: stream exhausted at group %d: %w", id, ErrReconstructFailed)
		}
		if n == 2 {
			sc.key.Set(keyAt, stream.Get(at))
			keyAt++
			at++
			continue
		}
		order, err := sc.perm.KendallDecodeAt(stream, at, n)
		if err != nil {
			return bitvec.Vector{}, fmt.Errorf("groupbased: group %d: %v: %w", id, err, ErrReconstructFailed)
		}
		sc.perm.CompactEncodeAt(sc.key, keyAt, order)
		keyAt += perm.CompactBits(n)
		at += bits
	}
	return sc.key, nil
}
