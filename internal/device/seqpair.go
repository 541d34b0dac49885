package device

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// SeqPairParams configures a sequential-pairing (LISA) device.
type SeqPairParams struct {
	Rows, Cols   int
	ThresholdMHz float64
	Policy       pairing.StoragePolicy
	Code         ecc.Code
	EnrollReps   int
	// Noise names the silicon measurement-noise model. Single-valued:
	// the zero value silicon.NoiseCounter is the only accepted model.
	Noise silicon.NoiseKind
}

// SeqPairHelperNVM is the construction's complete helper NVM content.
type SeqPairHelperNVM struct {
	Pairs  pairing.SeqPairHelper
	Offset bitvec.Vector
}

// SeqPairDevice is a deployed LISA device.
type SeqPairDevice struct {
	base
	arr    *silicon.Array
	params SeqPairParams
	nvm    SeqPairHelperNVM
	key    bitvec.Vector // enrolled key (secret, drives the observable)
	src    *rng.Source
	// noise is the per-oracle measurement-noise state (the counter-mode
	// sweep counter).
	noise   *silicon.Noise
	scratch seqPairScratch
}

// seqPairScratch is the device's reusable reconstruction state: the
// readout of the stored pairs' oscillators, the codeword buffers, and
// the ECC decode workspace. It makes a steady-state App call
// allocation-free; WriteHelper invalidates it. Scratch is per-device
// state, NOT concurrency-safe.
type seqPairScratch struct {
	helperValid bool
	ro          silicon.Readout
	blocks      int
	block       *ecc.Block
	padded      bitvec.Vector
	recovered   bitvec.Vector
	ws          ecc.Workspace
}

// refresh rebuilds the helper-derived caches from the current NVM.
func (d *SeqPairDevice) refreshScratch() {
	sc := &d.scratch
	sc.ro.Invalidate()
	cn := d.params.Code.N()
	blocks := (len(d.nvm.Pairs.Pairs) + cn - 1) / cn
	if blocks == 0 {
		blocks = 1
	}
	if sc.block == nil || sc.blocks != blocks {
		sc.block = ecc.NewBlock(d.params.Code, blocks)
		sc.blocks = blocks
	}
	if padLen := blocks * cn; sc.padded.Len() != padLen {
		sc.padded = bitvec.New(padLen)
		sc.recovered = bitvec.New(padLen)
	}
	sc.helperValid = true
}

// EnrollSeqPair manufactures and enrolls a device. srcMfg drives
// manufacturing variability, srcRun drives enrollment noise, helper
// randomization and all subsequent reconstruction noise.
func EnrollSeqPair(p SeqPairParams, srcMfg, srcRun *rng.Source) (*SeqPairDevice, error) {
	return EnrollSeqPairReuse(nil, p, srcMfg, srcRun)
}

// EnrollSeqPairReuse is EnrollSeqPair adopting a previously enrolled
// device's backing storage: the device struct, its silicon component
// buffers (Array.Remanufactured), and the warm scratch capacity are
// reused in place of fresh allocations — the campaign device-pool path.
// The result is bit-identical to a fresh EnrollSeqPair on the same
// sources. prev may be nil (a fresh enrollment); prev must not be used
// again by the caller — on error it is left mid-remanufacture and must
// be discarded, not reused.
func EnrollSeqPairReuse(prev *SeqPairDevice, p SeqPairParams, srcMfg, srcRun *rng.Source) (*SeqPairDevice, error) {
	if p.Code == nil || p.EnrollReps < 1 {
		return nil, fmt.Errorf("device: invalid seqpair params %+v", p)
	}
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.Noise = p.Noise
	var prevArr *silicon.Array
	if prev != nil {
		prevArr = prev.arr
	}
	arr := prevArr.Remanufactured(cfg, srcMfg)
	env := arr.Config().NominalEnv()
	noise := arr.NewNoise(srcRun)
	f := arr.MeasureAveragedInto(make([]float64, arr.N()), make([]float64, 2*arr.N()), env, noise, p.EnrollReps)
	helper := pairing.EnrollSeqPair(f, p.ThresholdMHz, p.Policy, srcRun)
	if len(helper.Pairs) == 0 {
		return nil, fmt.Errorf("device: enrollment selected no pairs (threshold %v too high)", p.ThresholdMHz)
	}
	resp := pairing.Responses(f, helper.Pairs)
	padded, blocks := padToBlocks(resp, p.Code)
	block := ecc.NewBlock(p.Code, blocks)
	off := ecc.EnrollOffset(block, padded, srcRun)
	d := prev
	if d == nil {
		d = &SeqPairDevice{}
	}
	d.base.reset(env)
	d.arr = arr
	d.params = p
	d.nvm = SeqPairHelperNVM{Pairs: helper, Offset: off.W}
	d.key = resp
	d.src = srcRun
	d.noise = noise
	// The remanufactured array lives at the same pointer, so the
	// readout cannot detect the content change: reset it explicitly
	// along with the helper-derived caches.
	d.scratch.helperValid = false
	d.scratch.ro.Reset()
	return d, nil
}

// ReadHelper returns a deep copy of the helper NVM (attacker read access).
func (d *SeqPairDevice) ReadHelper() SeqPairHelperNVM {
	return SeqPairHelperNVM{
		Pairs:  pairing.SeqPairHelper{Pairs: append([]pairing.Pair(nil), d.nvm.Pairs.Pairs...)},
		Offset: d.nvm.Offset.Clone(),
	}
}

// HelperView returns the helper NVM content sharing the device's own
// storage: a read-only fast path for serialization-style consumers
// (adapters marshaling the NVM into an image) that would otherwise
// deep-copy and immediately discard. Callers must not mutate it and must
// not retain it across a WriteHelper.
func (d *SeqPairDevice) HelperView() SeqPairHelperNVM { return d.nvm }

// WriteHelper overwrites the helper NVM (attacker write access). The
// device applies its structural sanity checks at write time and rejects
// malformed content; the paper's attacks pass these checks by design.
func (d *SeqPairDevice) WriteHelper(h SeqPairHelperNVM) error {
	if err := h.Pairs.Validate(d.arr.N()); err != nil {
		return err
	}
	if h.Offset.Len() != d.nvm.Offset.Len() {
		return fmt.Errorf("device: offset length %d, want %d", h.Offset.Len(), d.nvm.Offset.Len())
	}
	// Copy into the device-owned NVM buffers in place: helper writes are
	// the attack loops' second hot path, and the buffers' lifetimes are
	// the device's own (HelperView callers must not hold a view across a
	// write, which is its documented contract).
	d.nvm.Pairs.Pairs = append(d.nvm.Pairs.Pairs[:0], h.Pairs.Pairs...)
	h.Offset.CopyInto(d.nvm.Offset)
	d.scratch.helperValid = false
	d.bumpNVM()
	return nil
}

// NumPairs returns the enrolled pair count (public: it is the helper
// list's length).
func (d *SeqPairDevice) NumPairs() int { return len(d.nvm.Pairs.Pairs) }

// Code exposes the ECC parameters (public device specification).
func (d *SeqPairDevice) Code() ecc.Code { return d.params.Code }

// App reconstructs the key from current NVM and fresh measurements and
// compares it with the enrolled reference. The reconstruction runs
// entirely in the device's scratch buffers (a readout of the stored
// pairs' oscillators, decode-into ECC), allocation-free in steady
// state.
func (d *SeqPairDevice) App() bool {
	d.addQuery()
	sc := &d.scratch
	if !sc.helperValid {
		d.refreshScratch()
	}
	pairs := d.nvm.Pairs.Pairs
	if sc.ro.Stale(d.arr, d.env) {
		for _, p := range pairs {
			sc.ro.Compare(p.A, p.B)
		}
		sc.ro.Split()
	}
	f := sc.ro.Measure(d.noise)
	if len(pairs) != d.key.Len() {
		return false
	}
	if sc.padded.Len() != d.nvm.Offset.Len() {
		return false
	}
	sc.padded.Zero()
	for i, p := range pairs {
		if pairing.ResponseBit(f, p) {
			sc.padded.Set(i, true)
		}
	}
	if _, ok := ecc.ReproduceInto(sc.block, ecc.Offset{W: d.nvm.Offset}, sc.padded, &sc.ws, sc.recovered); !ok {
		return false
	}
	return sc.recovered.HasPrefix(d.key)
}

// TrueKey returns the enrolled key. Evaluation-only: attacks never call
// it; benches use it to score recovery.
func (d *SeqPairDevice) TrueKey() bitvec.Vector { return d.key.Clone() }

func padToBlocks(resp bitvec.Vector, code ecc.Code) (bitvec.Vector, int) {
	n := code.N()
	blocks := (resp.Len() + n - 1) / n
	if blocks == 0 {
		blocks = 1
	}
	return resp.Concat(bitvec.New(blocks*n - resp.Len())), blocks
}
