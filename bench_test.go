// Package repro's bench harness regenerates every table and figure of
// the paper (see the README's "Experiment ↔ paper mapping" for the
// experiment index). Each benchmark reports the experiment's headline
// quantities as custom metrics so that `go test -bench=. -benchmem`
// reproduces the evaluation in one run; the cmd/puf-bench tool prints
// the same results as human-readable tables. Every iteration runs the
// same fixed seed (for the attacks, the first golden seed), so the
// metrics do not depend on b.N: -benchtime 1x and 3x print the same
// values.
package repro

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/perm"
	"repro/internal/transcript"
)

// BenchmarkTableI_KendallCoding (E1) regenerates the paper's Table I:
// compact and Kendall codings of all 24 orders of four ROs.
func BenchmarkTableI_KendallCoding(b *testing.B) {
	var rows []experiments.TableIRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableI()
	}
	if len(rows) != 24 {
		b.Fatalf("%d rows", len(rows))
	}
	b.ReportMetric(float64(len(rows)), "rows")
	b.ReportMetric(float64(len(rows[0].Kendall)), "kendall-bits")
	b.ReportMetric(float64(len(rows[0].Compact)), "compact-bits")
}

// BenchmarkFig2_FrequencyTopology (E2) reproduces the Fig. 2 variance
// decomposition: systematic trend dominates raw variance; distillation
// reduces the residual to the random-component level.
func BenchmarkFig2_FrequencyTopology(b *testing.B) {
	var r experiments.Fig2Result
	var err error
	for b.Loop() {
		r, err = experiments.Fig2(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RawVariance, "raw-var-MHz2")
	b.ReportMetric(r.ResidualVar, "resid-var-MHz2")
	b.ReportMetric(r.RandVariance, "random-var-MHz2")
	b.ReportMetric(r.RawVariance/r.ResidualVar, "distill-gain")
}

// BenchmarkFig3_PairClassification (E3) reproduces the Fig. 3 good /
// bad / cooperating pair classification at the default threshold.
func BenchmarkFig3_PairClassification(b *testing.B) {
	var rows []experiments.Fig3Row
	var err error
	for b.Loop() {
		rows, err = experiments.Fig3(1, []float64{0.6})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Good), "good-pairs")
	b.ReportMetric(float64(rows[0].Bad), "bad-pairs")
	b.ReportMetric(float64(rows[0].Coop), "coop-pairs")
}

// BenchmarkFig5_FailureRatePDFs (E4) reproduces the Fig. 5 error-count
// PDFs and their distinguishability.
func BenchmarkFig5_FailureRatePDFs(b *testing.B) {
	var r experiments.Fig5Result
	var err error
	for b.Loop() {
		r, err = experiments.Fig5(3, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.FailNominal, "p-fail-nominal")
	b.ReportMetric(r.FailH0, "p-fail-H0")
	b.ReportMetric(r.FailH1, "p-fail-H1")
	b.ReportMetric(r.TVDistance, "tv-distance")
}

// BenchmarkFig6a_GroupBasedAttack (E5/E10) runs the §VI-C full key
// recovery on the paper's 4x10 Fig. 6 array.
func BenchmarkFig6a_GroupBasedAttack(b *testing.B) {
	r := benchTranscript(b, transcript.Spec{Attack: "groupbased", Seed: 9})
	b.ReportMetric(float64(r.EnrolledKeyBits), "key-bits")
	b.ReportMetric(float64(r.Queries), "oracle-queries")
	b.ReportMetric(boolMetric(r.Recovered), "recovered")
}

// BenchmarkFig6b_MaskingAttack (E6) runs the distiller + 1-out-of-5
// masking attack.
func BenchmarkFig6b_MaskingAttack(b *testing.B) {
	r := benchTranscript(b, transcript.Spec{Attack: "masking", Seed: 11})
	b.ReportMetric(float64(r.EnrolledKeyBits), "key-bits")
	b.ReportMetric(float64(r.Queries), "oracle-queries")
	b.ReportMetric(boolMetric(r.Recovered), "recovered")
}

// BenchmarkFig6c_NeighborChainAttack (E7) runs the distiller +
// overlapping chain attack with its 2^4 hypothesis sets.
func BenchmarkFig6c_NeighborChainAttack(b *testing.B) {
	r := benchTranscript(b, transcript.Spec{Attack: "chain", Seed: 13})
	b.ReportMetric(float64(r.EnrolledKeyBits), "key-bits")
	b.ReportMetric(float64(r.MaxHypotheses), "max-hypotheses")
	b.ReportMetric(float64(r.Queries), "oracle-queries")
	b.ReportMetric(boolMetric(r.Recovered), "recovered")
}

// BenchmarkAttackSeqPair (E8) runs the §VI-A key recovery end to end
// with the expurgated code (full recovery including the complement bit).
func BenchmarkAttackSeqPair(b *testing.B) {
	r := benchTranscript(b, transcript.Spec{Attack: "seqpair", Seed: 5, Expurgate: true})
	b.ReportMetric(float64(r.EnrolledKeyBits), "key-bits")
	b.ReportMetric(float64(r.Queries), "oracle-queries")
	b.ReportMetric(float64(r.Queries)/float64(r.EnrolledKeyBits), "queries-per-bit")
	b.ReportMetric(boolMetric(r.Recovered), "recovered")
}

// BenchmarkAttackTempCo (E9) runs the §VI-B relation recovery end to
// end, scored against silicon ground truth.
func BenchmarkAttackTempCo(b *testing.B) {
	r := benchTranscript(b, transcript.Spec{Attack: "tempco", Seed: 7})
	b.ReportMetric(float64(r.RelationsFound), "relations")
	b.ReportMetric(float64(r.RelationsRight)/float64(r.RelationsFound), "relation-accuracy")
	b.ReportMetric(float64(r.MaskBitsFound), "absolute-mask-bits")
	b.ReportMetric(float64(r.Queries), "oracle-queries")
}

// benchTranscript runs spec once per iteration and returns its
// transcript, the same on every iteration.
func benchTranscript(b *testing.B, spec transcript.Spec) transcript.Transcript {
	var r transcript.Transcript
	var err error
	for b.Loop() {
		if r, err = transcript.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// boolMetric reports a flag as 1 or 0.
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// BenchmarkEntropyAccounting (E11) reproduces the log2(N!) and
// sum log2(|Gj|!) entropy figures of §II and §V-B.
func BenchmarkEntropyAccounting(b *testing.B) {
	var rows []experiments.EntropyRow
	for b.Loop() {
		rows = experiments.EntropyAccounting(15, []float64{0.5})
	}
	b.ReportMetric(rows[0].TotalBits, "log2-N!-bits")
	b.ReportMetric(rows[0].EntropyBits, "grouped-entropy-bits")
	b.ReportMetric(float64(rows[0].KeyBits), "packed-key-bits")
}

// BenchmarkFuzzyExtractorResistance (E12) contrasts the attacker's
// single-manipulation advantage on the fuzzy extractor (≈0) with the
// LISA construction (≈1).
func BenchmarkFuzzyExtractorResistance(b *testing.B) {
	var r experiments.FuzzyResistanceResult
	var err error
	for b.Loop() {
		r, err = experiments.FuzzyResistance(17, 40)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.FuzzyAdvantage, "fuzzy-advantage")
	b.ReportMetric(r.SeqPairAdvantage, "lisa-advantage")
}

// BenchmarkAblationStoragePolicy (A1, §VII-C) quantifies the direct
// leakage of sorted versus randomized within-pair storage.
func BenchmarkAblationStoragePolicy(b *testing.B) {
	var r experiments.StorageLeakage
	var err error
	for b.Loop() {
		r, err = experiments.AblationStoragePolicy(context.Background(), 19, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SortedOnesFraction, "sorted-ones-fraction")
	b.ReportMetric(r.RandomizedOnesFraction, "randomized-ones-fraction")
}

// BenchmarkAblationStrategy (A3) compares the sequential and
// fixed-sample distinguishers' oracle cost on the same attack.
func BenchmarkAblationStrategy(b *testing.B) {
	var r experiments.StrategyCost
	var err error
	for b.Loop() {
		r, err = experiments.AblationStrategy(context.Background(), 21)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.SequentialQueries), "sequential-queries")
	b.ReportMetric(float64(r.FixedSampleQueries), "fixed-queries")
}

// BenchmarkEntropyLog2Factorial exercises the §II total-entropy formula
// across array sizes (micro-benchmark supporting E11).
func BenchmarkEntropyLog2Factorial(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		v = perm.Log2Factorial(512)
	}
	b.ReportMetric(v, "bits-512-ROs")
}

// BenchmarkAblationOffsetSize (A4) sweeps the common offset of Fig. 5
// from 1 to the code radius, reporting the calibrated rate separation.
func BenchmarkAblationOffsetSize(b *testing.B) {
	var rows []experiments.OffsetSizeRow
	var err error
	for b.Loop() {
		rows, err = experiments.AblationOffsetSize(context.Background(), 23)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.PElevated-last.PNominal, "separation-at-t")
	b.ReportMetric(rows[0].PElevated-rows[0].PNominal, "separation-at-1")
	b.ReportMetric(float64(last.Queries), "queries-at-t")
}

// BenchmarkCampaignAttackSuccess (R1) runs the attack-success campaign,
// all five attacks per seed over an 8-seed population, at 1, 2, 4 and 8
// workers. The workers-1 run is the serial baseline; on an N-core host
// the workers-8 run approaches min(8, N)x speedup. Outcomes are
// asserted identical to the serial run on every iteration, and the
// per-attack recovery rates are reported.
func BenchmarkCampaignAttackSuccess(b *testing.B) {
	const seeds = 8
	spec := campaign.Spec{Task: "attack-success", BaseSeed: 1000, Seeds: seeds, Workers: 1}
	baseline, err := campaign.Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			spec := spec
			spec.Workers = workers
			for i := 0; i < b.N; i++ {
				r, err := campaign.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if !reflect.DeepEqual(r.Outcomes, baseline.Outcomes) {
					b.Fatalf("workers=%d diverged from serial", workers)
				}
			}
			for _, a := range baseline.Aggregates {
				b.ReportMetric(a.Mean, a.Metric)
			}
		})
	}
}

// BenchmarkCampaignEngine measures the engine's own fan-out overhead on
// a lighter task (the Fig. 2 variance decomposition), serial vs pooled.
func BenchmarkCampaignEngine(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("fig2-workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := campaign.Run(context.Background(), campaign.Spec{
					Task: "fig2", BaseSeed: 7, Seeds: 16, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
