package main

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
	"repro/internal/transcript"
)

// constructions are the five canonical device configurations, named by
// the attack that targets each; requests go round-robin over them.
var constructions = []string{"seqpair", "tempco", "groupbased", "masking", "chain"}

// enrolled is one freshly enrolled canonical device behind the attack
// surface, with the transcript scoring transcript.RunWith applies.
type enrolled struct {
	target attack.Target
	truth  bitvec.Vector
	app    func() bool
	score  func(attack.Report, *transcript.Transcript)
}

// carcasses holds one enrolled-device carcass and one ECC code per
// construction, adopted by the next enrollment of that construction
// through device.Enroll*Reuse — the pooled enrollment path of campaign
// workers, composed here from the device layer directly. The device
// parameters are the repository's canonical per-attack evaluation
// configuration (transcript.RunWith's), under counter noise, with the
// expurgated seqpair code.
type carcasses struct {
	codes   map[string]ecc.Code
	seqpair *device.SeqPairDevice
	tempco  *device.TempCoDevice
	group   *device.GroupBasedDevice
	dist    map[string]*device.DistillerPairDevice
}

func newCarcasses() *carcasses {
	return &carcasses{codes: map[string]ecc.Code{}, dist: map[string]*device.DistillerPairDevice{}}
}

func (c *carcasses) code(name string) ecc.Code {
	if code, ok := c.codes[name]; ok {
		return code
	}
	cfg := ecc.BCHConfig{M: 5, T: 3, Expurgate: name == "seqpair"}
	if name == "tempco" {
		cfg = ecc.BCHConfig{M: 6, T: 3}
	}
	code := ecc.MustBCH(cfg)
	c.codes[name] = code
	return code
}

// enroll manufactures and enrolls the device of transcript spec
// {Attack: name, Seed: seed, Noise: "counter"}. On error the carcass is
// dropped, as the device layer requires.
func (c *carcasses) enroll(name string, seed uint64) (enrolled, error) {
	mfg, run := rng.New(seed), rng.New(seed+1)
	const noise = silicon.NoiseCounter
	switch name {
	case "seqpair":
		d, err := device.EnrollSeqPairReuse(c.seqpair, device.SeqPairParams{
			Rows: 8, Cols: 16, ThresholdMHz: 0.8, Policy: pairing.RandomizedStorage,
			Code: c.code(name), EnrollReps: 20, Noise: noise,
		}, mfg, run)
		c.seqpair = d
		if err != nil {
			return enrolled{}, err
		}
		return enrolled{target: attack.NewSeqPairTarget(d), truth: d.TrueKey(), app: d.App,
			score: func(rep attack.Report, tr *transcript.Transcript) {
				tr.UpToComplement = tr.Recovered || rep.Key.Equal(d.TrueKey().Not())
			}}, nil

	case "tempco":
		p := tempco.Params{
			Rows: 8, Cols: 16, ThresholdMHz: 0.6, TminC: -20, TmaxC: 80,
			Policy: tempco.RandomSelection, Code: c.code(name), EnrollReps: 25, Noise: noise,
		}
		d, err := device.EnrollTempCoReuse(c.tempco, p, mfg, run)
		c.tempco = d
		if err != nil {
			return enrolled{}, err
		}
		return enrolled{target: attack.NewTempCoTarget(d), truth: d.TrueKey(), app: d.App,
			score: func(rep attack.Report, tr *transcript.Transcript) { scoreTempCo(d, p, rep, tr) }}, nil

	case "groupbased":
		d, err := device.EnrollGroupBasedReuse(c.group, groupbased.Params{
			Rows: 4, Cols: 10, Degree: 2, ThresholdMHz: 0.5, MaxGroupSize: 6,
			Code: c.code(name), EnrollReps: 25, Noise: noise,
		}, mfg, run)
		c.group = d
		if err != nil {
			return enrolled{}, err
		}
		return enrolled{target: attack.NewGroupBasedTarget(d), truth: d.TrueKey(), app: d.App,
			score: func(rep attack.Report, tr *transcript.Transcript) {
				det := rep.Details.(attack.GroupBasedDetails)
				tr.Groups, tr.Resolved = len(det.Orders), det.Resolved
			}}, nil

	case "masking", "chain":
		p := device.DistillerPairParams{
			Rows: 4, Cols: 10, Degree: 2, Mode: device.MaskedChain, K: 5,
			Code: c.code(name), EnrollReps: 25, Noise: noise,
		}
		if name == "chain" {
			p.Mode, p.K = device.OverlappingChain, 0
		}
		d, err := device.EnrollDistillerPairReuse(c.dist[name], p, mfg, run)
		c.dist[name] = d
		if err != nil {
			return enrolled{}, err
		}
		return enrolled{target: attack.NewDistillerTarget(d), truth: d.TrueKey(), app: d.App,
			score: func(rep attack.Report, tr *transcript.Transcript) {
				switch det := rep.Details.(type) {
				case attack.MaskingDetails:
					tr.BaseBits = len(det.BaseBits)
				case attack.ChainDetails:
					tr.MaxHypotheses = det.MaxHypotheses
				}
			}}, nil
	}
	return enrolled{}, fmt.Errorf("unknown construction %q", name)
}

// scoreTempCo scores the recovered relations against silicon ground
// truth (noise-free pair deltas at the low temperature end), as the
// transcript contract does: a relation-only attack counts as recovered
// when every relation and mask bit it reports is correct.
func scoreTempCo(d *device.TempCoDevice, p tempco.Params, rep attack.Report, tr *transcript.Transcript) {
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
	tr.Recovered = tr.RelationsFound > 0 && tr.RelationsRight == tr.RelationsFound &&
		tr.MaskBitsRight == tr.MaskBitsFound
}
