// Package transcript is the repository's single determinism contract.
// A Spec names one cell of the attack evaluation matrix — attack name ×
// device seed × the device/attack options the golden suites vary — and
// Run executes it through the attack registry against a freshly
// enrolled reference device, recording a canonical Transcript: the
// enrolled-key digest, the recovered key, the recovery outcome, the
// oracle-query count and the per-phase query costs.
//
// Transcripts are the unit of golden testing: the committed files under
// testdata/transcripts/ each hold the []Transcript of one attack's cell
// group, regenerated by exactly one entry point
// (`go test -run TestGoldenTranscripts -update` at the repo root,
// or `puf-bench -golden testdata` for CI). Everything a
// transcript records is a pure function of its Spec, so a golden drift
// always means observable behavior changed — never "just speed".
package transcript

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

// Spec selects one evaluation-matrix cell. The zero value of the
// optional axis selects the plain (non-expurgated) code where the attack
// has the choice.
type Spec struct {
	// Attack is the registry name: seqpair, tempco, groupbased,
	// masking or chain.
	Attack string `json:"attack"`
	// Seed derives the device: manufacturing RNG rng.New(Seed),
	// enrollment/runtime RNG rng.New(Seed+1).
	Seed uint64 `json:"seed"`
	// Noise names the silicon noise model. Single-valued: "" and
	// "counter" both select the counter model; any other value (the
	// removed "stream" model included) is rejected by Run. It is kept
	// so existing specs and golden files decode unchanged.
	Noise string `json:"noise,omitempty"`
	// Expurgate selects the even-weight BCH subcode on the seqpair
	// device, removing the complement ambiguity.
	Expurgate bool `json:"expurgate,omitempty"`
}

// PhaseCost is one phase of the attack's query-cost breakdown. Wall
// time is deliberately absent: transcripts record only deterministic
// observables.
type PhaseCost struct {
	Name    string `json:"name"`
	Queries int    `json:"queries"`
}

// Transcript is the canonical record of one Spec's execution. Every
// field is a deterministic function of the Spec.
type Transcript struct {
	Spec Spec `json:"spec"`

	// EnrolledKeyBits / EnrolledKeyDigest pin the enrollment path: the
	// length and SHA-256 digest of the device's true key bit string.
	EnrolledKeyBits   int    `json:"enrolled_key_bits"`
	EnrolledKeyDigest string `json:"enrolled_key_digest"`

	// Key is the recovered key bit string (empty for relation-only
	// attacks); Recovered reports exact recovery.
	Key            string `json:"key,omitempty"`
	Recovered      bool   `json:"recovered"`
	UpToComplement bool   `json:"up_to_complement,omitempty"`
	Ambiguous      bool   `json:"ambiguous,omitempty"`

	// Queries is the total oracle cost; Phases breaks it down in
	// execution order.
	Queries int         `json:"queries"`
	Phases  []PhaseCost `json:"phases"`

	// Group-based extras.
	Groups   int `json:"groups,omitempty"`
	Resolved int `json:"resolved,omitempty"`

	// Masking extras.
	BaseBits int `json:"base_bits,omitempty"`

	// Chain extras.
	MaxHypotheses int `json:"max_hypotheses,omitempty"`

	// TempCo extras, scored against silicon ground truth.
	CoopPairs      int `json:"coop_pairs,omitempty"`
	RelationsFound int `json:"relations_found,omitempty"`
	RelationsRight int `json:"relations_right,omitempty"`
	MaskBitsFound  int `json:"mask_bits_found,omitempty"`
	MaskBitsRight  int `json:"mask_bits_right,omitempty"`
	Skipped        int `json:"skipped,omitempty"`
}

// cell is one prepared attack run: the target plus a scorer that fills
// the attack-specific transcript fields from the report.
type cell struct {
	target attack.Target
	truth  bitvec.Vector // enrolled key
	score  func(attack.Report, *Transcript)
}

// Cache is the state-reuse hook of RunWith: a keyed cache whose Get
// returns the value under key, building and retaining it on a miss.
// *campaign.Pool implements it; the interface lives here so the
// determinism contract stays free of engine dependencies. A Cache is
// used from one goroutine at a time (it is per-worker by construction).
type Cache interface {
	Get(key string, build func() any) any
}

// enrollPool is the per-(attack, options) pooled enrollment state: the
// previously enrolled device, whose backing storage the next seed's
// enrollment adopts via the device layer's Enroll*Reuse path. The ECC
// code needs no pooling: ecc.NewBCH returns one shared instance per
// configuration, so pooled and unpooled runs build it the same way.
type enrollPool struct {
	dev any
}

// poolFor returns the pooled state under cache for one fingerprint,
// or fresh throwaway state when cache is nil. The fingerprint must
// cover every enrollment axis the Spec can vary for that attack.
func (Spec) poolFor(cache Cache, key string) *enrollPool {
	if cache == nil {
		return new(enrollPool)
	}
	return cache.Get(key, func() any { return new(enrollPool) }).(*enrollPool)
}

// Run executes one Spec and returns its Transcript.
func Run(ctx context.Context, spec Spec) (Transcript, error) {
	return RunWith(ctx, spec, nil)
}

// RunWith is Run with a reuse Cache: enrollment adopts the pooled
// device carcass for the spec's fingerprint instead of allocating a
// fresh one — the campaign device-pool path. The transcript
// is bit-identical to Run's (enforced by TestRunWithPoolMatchesFresh
// and, transitively, by the golden suites over pooled campaigns); a nil
// cache is exactly Run.
func RunWith(ctx context.Context, spec Spec, cache Cache) (Transcript, error) {
	c, err := enroll(spec, cache)
	if err != nil {
		return Transcript{}, err
	}
	rep, err := attack.Run(ctx, spec.Attack, c.target, attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		return Transcript{}, err
	}
	truth := c.truth.String()
	sum := sha256.Sum256([]byte(truth))
	tr := Transcript{
		Spec:              spec,
		EnrolledKeyBits:   len(truth),
		EnrolledKeyDigest: hex.EncodeToString(sum[:]),
		Key:               rep.Key.String(),
		Ambiguous:         rep.Ambiguous,
		Queries:           rep.Queries,
		Phases:            make([]PhaseCost, 0, len(rep.Phases)),
	}
	for _, ph := range rep.Phases {
		tr.Phases = append(tr.Phases, PhaseCost{Name: ph.Name, Queries: ph.Queries})
	}
	tr.Recovered = tr.Key != "" && tr.Key == truth
	c.score(rep, &tr)
	return tr, nil
}

// Enroll manufactures spec's canonical reference device, the one Run
// attacks, and returns it as an attack target together with its
// enrolled key. Callers that run an attack under their own options (a
// CLI, an ablation) start here instead of copying the device table. A
// non-nil cache makes it RunWith's pooled enrollment: the device adopts
// the pooled carcass of the spec's fingerprint (and replaces it, so a
// target from an earlier call on the same cache is no longer usable).
func Enroll(spec Spec, cache Cache) (attack.Target, bitvec.Vector, error) {
	c, err := enroll(spec, cache)
	return c.target, c.truth, err
}

// enroll manufactures the reference device for spec and wraps it as a
// scored cell. The device parameters are the repository's canonical
// per-attack evaluation configuration (the paper's array geometries),
// shared by experiments, benchmarks, goldens and puf-attack. With a
// non-nil cache,
// enrollment adopts the pooled device for the spec's fingerprint (the
// attack × code-option axes — everything that shapes the device
// besides the seed); a reuse-enrollment error drops the pooled carcass
// so a retry cannot adopt half-remanufactured state.
func enroll(spec Spec, cache Cache) (cell, error) {
	if err := silicon.CheckNoise(spec.Noise); err != nil {
		return cell{}, err
	}
	mfg, run := rng.New(spec.Seed), rng.New(spec.Seed+1)
	switch spec.Attack {
	case "seqpair":
		key := "transcript:seqpair"
		if spec.Expurgate {
			key += ":exp"
		}
		ep := spec.poolFor(cache, key)
		prev, _ := ep.dev.(*device.SeqPairDevice)
		d, err := device.EnrollSeqPairReuse(prev, device.SeqPairParams{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.8,
			Policy:       pairing.RandomizedStorage,
			Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: spec.Expurgate}),
			EnrollReps:   20,
		}, mfg, run)
		if err != nil {
			ep.dev = nil
			return cell{}, err
		}
		ep.dev = d
		truth := d.TrueKey()
		return cell{target: attack.NewSeqPairTarget(d), truth: truth,
			score: func(rep attack.Report, tr *Transcript) {
				tr.UpToComplement = tr.Recovered || rep.Key.Equal(truth.Not())
			}}, nil

	case "tempco":
		ep := spec.poolFor(cache, "transcript:tempco")
		p := tempco.Params{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.6,
			TminC:        -20, TmaxC: 80,
			Policy:     tempco.RandomSelection,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
			EnrollReps: 25,
		}
		prev, _ := ep.dev.(*device.TempCoDevice)
		d, err := device.EnrollTempCoReuse(prev, p, mfg, run)
		if err != nil {
			ep.dev = nil
			return cell{}, err
		}
		ep.dev = d
		return cell{target: attack.NewTempCoTarget(d), truth: d.TrueKey(),
			score: func(rep attack.Report, tr *Transcript) {
				scoreTempCo(d, p, rep, tr)
			}}, nil

	case "groupbased":
		ep := spec.poolFor(cache, "transcript:groupbased")
		prev, _ := ep.dev.(*device.GroupBasedDevice)
		d, err := device.EnrollGroupBasedReuse(prev, groupbased.Params{
			Rows: 4, Cols: 10,
			Degree:       2,
			ThresholdMHz: 0.5,
			MaxGroupSize: 6,
			Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps:   25,
		}, mfg, run)
		if err != nil {
			ep.dev = nil
			return cell{}, err
		}
		ep.dev = d
		return cell{target: attack.NewGroupBasedTarget(d), truth: d.TrueKey(),
			score: func(rep attack.Report, tr *Transcript) {
				det := rep.Details.(attack.GroupBasedDetails)
				tr.Groups = len(det.Orders)
				tr.Resolved = det.Resolved
			}}, nil

	case "masking", "chain":
		ep := spec.poolFor(cache, "transcript:"+spec.Attack)
		p := device.DistillerPairParams{
			Rows: 4, Cols: 10,
			Degree:     2,
			Mode:       device.MaskedChain,
			K:          5,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps: 25,
		}
		if spec.Attack == "chain" {
			p.Mode, p.K = device.OverlappingChain, 0
		}
		prev, _ := ep.dev.(*device.DistillerPairDevice)
		d, err := device.EnrollDistillerPairReuse(prev, p, mfg, run)
		if err != nil {
			ep.dev = nil
			return cell{}, err
		}
		ep.dev = d
		return cell{target: attack.NewDistillerTarget(d), truth: d.TrueKey(),
			score: func(rep attack.Report, tr *Transcript) {
				switch det := rep.Details.(type) {
				case attack.MaskingDetails:
					tr.BaseBits = len(det.BaseBits)
				case attack.ChainDetails:
					tr.MaxHypotheses = det.MaxHypotheses
				}
			}}, nil
	}
	return cell{}, fmt.Errorf("transcript: unknown attack %q (have %v)", spec.Attack, attack.Names())
}

// scoreTempCo fills the relation-recovery scores against silicon ground
// truth: reference bits from noise-free low-temperature pair deltas.
func scoreTempCo(d *device.TempCoDevice, p tempco.Params, rep attack.Report, tr *Transcript) {
	det := rep.Details.(attack.TempCoDetails)
	arr := d.Array()
	h := d.ReadHelper()
	envMin := arr.Config().NominalEnv()
	envMin.TempC = p.TminC
	refBit := func(i int) bool {
		return arr.PairDeltaF(h.Pairs[i].Pair.A, h.Pairs[i].Pair.B, envMin) > 0
	}
	tr.CoopPairs = len(det.CoopIdx)
	tr.Skipped = len(det.Skipped)
	for x, got := range det.XorWithRef {
		tr.RelationsFound++
		if got == (refBit(x) != refBit(det.RefIdx)) {
			tr.RelationsRight++
		}
	}
	for g, got := range det.MaskBits {
		tr.MaskBitsFound++
		if got == refBit(g) {
			tr.MaskBitsRight++
		}
	}
	// A relation-only attack "recovers" when every relation and mask
	// bit it reports is correct.
	tr.Recovered = tr.RelationsFound > 0 && tr.RelationsRight == tr.RelationsFound &&
		tr.MaskBitsRight == tr.MaskBitsFound
}

// ----------------------------------------------------- golden matrix --

// goldenSeeds are the pinned device seeds per attack — carried over
// verbatim from the historical golden_seed_test.go/golden_counter_test.go
// tables so the committed transcripts extend, rather than reset, the
// determinism contract.
var goldenSeeds = map[string][]uint64{
	"seqpair":    {5, 8, 11},
	"tempco":     {7, 10, 13},
	"groupbased": {9, 12, 15},
	"masking":    {11, 14, 17},
	"chain":      {13, 16, 19},
}

// GoldenFiles returns the canonical golden matrix grouped by file name:
// "<attack>_counter.json" → the specs of that cell group, in seed
// order. The seqpair cells run the expurgated subcode (full recovery,
// matching the historical goldens).
func GoldenFiles() map[string][]Spec {
	out := make(map[string][]Spec, len(goldenSeeds))
	for _, name := range Attacks() {
		specs := make([]Spec, 0, len(goldenSeeds[name]))
		for _, seed := range goldenSeeds[name] {
			specs = append(specs, Spec{
				Attack:    name,
				Seed:      seed,
				Noise:     "counter",
				Expurgate: name == "seqpair",
			})
		}
		out[name+"_counter.json"] = specs
	}
	return out
}

// Attacks returns the golden matrix's attack axis, sorted.
func Attacks() []string {
	out := make([]string, 0, len(goldenSeeds))
	for name := range goldenSeeds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RunAll executes specs in order and returns their transcripts.
func RunAll(ctx context.Context, specs []Spec) ([]Transcript, error) {
	out := make([]Transcript, 0, len(specs))
	for _, spec := range specs {
		tr, err := Run(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("transcript: %s seed %d: %w", spec.Attack, spec.Seed, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

// Marshal renders transcripts in the canonical golden-file encoding
// (indented JSON, trailing newline). Both the -update test flag and
// `puf-bench -golden` write exactly these bytes, so `git diff` is the
// staleness oracle.
func Marshal(trs []Transcript) ([]byte, error) {
	data, err := json.MarshalIndent(trs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
