package experiments

// This file exposes every experiment entry point as a registered
// campaign.Task behind the uniform Spec → Result interface, so
// cmd/puf-campaign (and any future sharding/batching layer) can fan any
// of them out over seed ranges without bespoke glue. Every task is
// serial per seed: the campaign engine's pool is the only fan-out, so
// no task keeps a worker count of its own. Registration happens at
// init time; the campaign package itself stays free of experiment
// dependencies.

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/transcript"
)

func init() {
	campaign.Register(campaign.Task{
		Name: "table-i", Desc: "Table I: compact and Kendall codings of all 24 orders", Figure: "Table I",
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			rows := TableI()
			if len(rows) != 24 {
				return nil, fmt.Errorf("experiments: Table I has %d rows", len(rows))
			}
			return campaign.Metrics{
				"rows":         float64(len(rows)),
				"compact-bits": float64(len(rows[0].Compact)),
				"kendall-bits": float64(len(rows[0].Kendall)),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "fig2", Desc: "frequency-topology variance decomposition", Figure: "Fig. 2",
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			r, err := Fig2(seed)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"raw-var-MHz2":    r.RawVariance,
				"syst-var-MHz2":   r.SystVariance,
				"random-var-MHz2": r.RandVariance,
				"resid-var-MHz2":  r.ResidualVar,
				"distill-gain":    r.RawVariance / r.ResidualVar,
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "fig3", Desc: "good/bad/cooperating pair classification at dfth = 0.6 MHz", Figure: "Fig. 3",
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			rows, err := Fig3(seed, []float64{0.6})
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"good-pairs": float64(rows[0].Good),
				"bad-pairs":  float64(rows[0].Bad),
				"coop-pairs": float64(rows[0].Coop),
				"key-bits":   float64(rows[0].KeyBits),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "fig5", Desc: "error-count PDFs and hypothesis distinguishability", Figure: "Fig. 5",
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			r, err := Fig5(seed, 300)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"p-fail-nominal": r.FailNominal,
				"p-fail-H0":      r.FailH0,
				"p-fail-H1":      r.FailH1,
				"tv-distance":    r.TVDistance,
				"fixed-samples":  float64(r.FixedSamples),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "groupbased-attack", Desc: "§VI-C group-based key recovery", Figure: "Fig. 6a",
		Binary: []string{"recovered"},
		Run: func(ctx context.Context, seed uint64, opt campaign.Options) (campaign.Metrics, error) {
			r, err := RunAttackPooled(ctx, transcript.Spec{Attack: "groupbased", Seed: seed, Noise: opt.Noise}, opt.Pool)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"recovered":      campaign.Bool(r.Recovered),
				"key-bits":       float64(r.EnrolledKeyBits),
				"groups":         float64(r.Groups),
				"resolved":       float64(r.Resolved),
				"oracle-queries": float64(r.Queries),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "masking-attack", Desc: "§VI-D distiller + 1-out-of-5 masking key recovery", Figure: "Fig. 6b",
		Binary: []string{"recovered"},
		Run: func(ctx context.Context, seed uint64, opt campaign.Options) (campaign.Metrics, error) {
			r, err := RunAttackPooled(ctx, transcript.Spec{Attack: "masking", Seed: seed, Noise: opt.Noise}, opt.Pool)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"recovered":      campaign.Bool(r.Recovered),
				"key-bits":       float64(r.EnrolledKeyBits),
				"base-bits":      float64(r.BaseBits),
				"oracle-queries": float64(r.Queries),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "chain-attack", Desc: "§VI-D distiller + overlapping chain key recovery", Figure: "Fig. 6c",
		Binary: []string{"recovered"},
		Run: func(ctx context.Context, seed uint64, opt campaign.Options) (campaign.Metrics, error) {
			r, err := RunAttackPooled(ctx, transcript.Spec{Attack: "chain", Seed: seed, Noise: opt.Noise}, opt.Pool)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"recovered":      campaign.Bool(r.Recovered),
				"key-bits":       float64(r.EnrolledKeyBits),
				"max-hypotheses": float64(r.MaxHypotheses),
				"oracle-queries": float64(r.Queries),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "seqpair-attack", Desc: "§VI-A sequential-pairing (LISA) key recovery, expurgated code", Figure: "§VI-A",
		Binary: []string{"recovered", "up-to-complement", "ambiguous"},
		Run: func(ctx context.Context, seed uint64, opt campaign.Options) (campaign.Metrics, error) {
			r, err := RunAttackPooled(ctx, transcript.Spec{
				Attack: "seqpair", Seed: seed, Noise: opt.Noise, Expurgate: true,
			}, opt.Pool)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"recovered":        campaign.Bool(r.Recovered),
				"up-to-complement": campaign.Bool(r.UpToComplement),
				"ambiguous":        campaign.Bool(r.Ambiguous),
				"key-bits":         float64(r.EnrolledKeyBits),
				"oracle-queries":   float64(r.Queries),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "tempco-attack", Desc: "§VI-B temperature-aware relation recovery", Figure: "§VI-B",
		Run: func(ctx context.Context, seed uint64, opt campaign.Options) (campaign.Metrics, error) {
			r, err := RunAttackPooled(ctx, transcript.Spec{Attack: "tempco", Seed: seed, Noise: opt.Noise}, opt.Pool)
			if err != nil {
				return nil, err
			}
			m := campaign.Metrics{
				"coop-pairs":      float64(r.CoopPairs),
				"relations-found": float64(r.RelationsFound),
				"mask-bits-found": float64(r.MaskBitsFound),
				"skipped":         float64(r.Skipped),
				"oracle-queries":  float64(r.Queries),
			}
			if r.RelationsFound > 0 {
				m["relation-accuracy"] = float64(r.RelationsRight) / float64(r.RelationsFound)
			}
			return m, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "entropy", Desc: "entropy accounting at threshold 0.5 MHz", Figure: "§II/§V-B",
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			rows := EntropyAccounting(seed, []float64{0.5})
			if len(rows) == 0 {
				return nil, fmt.Errorf("experiments: entropy accounting produced no rows")
			}
			return campaign.Metrics{
				"groups":       float64(rows[0].Groups),
				"entropy-bits": rows[0].EntropyBits,
				"key-bits":     float64(rows[0].KeyBits),
				"total-bits":   rows[0].TotalBits,
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "fuzzy-resistance", Desc: "manipulation advantage: fuzzy extractor vs LISA", Figure: "§VII",
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			r, err := FuzzyResistance(seed, 40)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"fuzzy-advantage": r.FuzzyAdvantage,
				"lisa-advantage":  r.SeqPairAdvantage,
				"oracle-queries":  float64(r.Queries),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "ablation-storage", Desc: "direct helper leakage of sorted vs randomized storage", Figure: "§VII-C",
		Run: func(ctx context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			r, err := AblationStoragePolicy(ctx, seed, 5)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"sorted-ones-fraction":     r.SortedOnesFraction,
				"randomized-ones-fraction": r.RandomizedOnesFraction,
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "ablation-strategy", Desc: "sequential vs fixed-sample distinguisher oracle cost",
		Binary: []string{"both-recovered"},
		Run: func(ctx context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			r, err := AblationStrategy(ctx, seed)
			if err != nil {
				return nil, err
			}
			return campaign.Metrics{
				"sequential-queries": float64(r.SequentialQueries),
				"fixed-queries":      float64(r.FixedSampleQueries),
				"both-recovered":     campaign.Bool(r.BothRecovered),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "ablation-offset", Desc: "common-offset sweep from 1 to the code radius",
		Binary: []string{"recovered-at-t"},
		Run: func(ctx context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			rows, err := AblationOffsetSize(ctx, seed)
			if err != nil {
				return nil, err
			}
			first, last := rows[0], rows[len(rows)-1]
			return campaign.Metrics{
				"separation-at-1": first.PElevated - first.PNominal,
				"separation-at-t": last.PElevated - last.PNominal,
				"queries-at-t":    float64(last.Queries),
				"recovered-at-t":  campaign.Bool(last.Recovered),
				"offset-levels":   float64(len(rows)),
			}, nil
		},
	})

	campaign.Register(campaign.Task{
		Name: "attack-success", Desc: "all five attacks on one device population per seed",
		Binary: []string{
			"seqpair-recovered", "groupbased-recovered",
			"masking-recovered", "chain-recovered",
		},
		Run: func(ctx context.Context, seed uint64, opt campaign.Options) (campaign.Metrics, error) {
			m := make(campaign.Metrics, 5)
			for _, name := range []string{"seqpair", "groupbased", "masking", "chain", "tempco"} {
				tr, err := RunAttackPooled(ctx, transcript.Spec{
					Attack: name, Seed: seed, Noise: opt.Noise, Expurgate: name == "seqpair",
				}, opt.Pool)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				switch {
				case name != "tempco":
					m[name+"-recovered"] = campaign.Bool(tr.Recovered)
				case tr.RelationsFound > 0:
					m["tempco-relation-accuracy"] = float64(tr.RelationsRight) / float64(tr.RelationsFound)
				}
			}
			return m, nil
		},
	})
}
