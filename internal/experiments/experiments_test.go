package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/campaign"
	"repro/internal/transcript"
)

// paperTableI is the ground truth from the paper for spot checks (full
// verification lives in internal/perm).
var paperTableI = map[string][2]string{
	"ABCD": {"00000", "000000"},
	"BDAC": {"01010", "101001"},
	"CDAB": {"10000", "011110"},
	"DCBA": {"10111", "111111"},
}

func TestTableIMatchesPaper(t *testing.T) {
	rows := TableI()
	if len(rows) != 24 {
		t.Fatalf("%d rows, want 24", len(rows))
	}
	for _, row := range rows {
		if want, ok := paperTableI[row.Order]; ok {
			if row.Compact != want[0] || row.Kendall != want[1] {
				t.Errorf("%s: got (%s,%s), want (%s,%s)", row.Order, row.Compact, row.Kendall, want[0], want[1])
			}
		}
	}
}

func TestFig2DecompositionShape(t *testing.T) {
	r, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	// The distiller must remove most of the systematic variance: the
	// residual variance approaches the random-component variance and
	// sits well below the raw variance.
	if r.ResidualVar >= r.RawVariance*0.8 {
		t.Fatalf("residual %v vs raw %v", r.ResidualVar, r.RawVariance)
	}
	if r.ResidualVar > r.RandVariance*1.4 || r.ResidualVar < r.RandVariance*0.6 {
		t.Fatalf("residual %v vs random %v", r.ResidualVar, r.RandVariance)
	}
}

func TestFig3Monotonicity(t *testing.T) {
	rows, err := Fig3(2, []float64{0.2, 0.6, 1.2, 2.4})
	if err != nil {
		t.Fatal(err)
	}
	// Higher thresholds must not increase the number of good pairs.
	for i := 1; i < len(rows); i++ {
		if rows[i].Good > rows[i-1].Good {
			t.Fatalf("good pairs increased with threshold: %+v", rows)
		}
	}
	// All classes partition the floor(N/2) = 64 pairs.
	for _, r := range rows {
		if r.Good+r.Bad+r.Coop != 64 {
			t.Fatalf("classes sum to %d", r.Good+r.Bad+r.Coop)
		}
	}
}

func TestFig5Separation(t *testing.T) {
	r, err := Fig5(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 5 shape: nominal almost never fails; H1 fails
	// more often than H0; the two hypothesis PDFs are distinguishable.
	if r.FailNominal > 0.2 {
		t.Fatalf("nominal failure rate %v", r.FailNominal)
	}
	if r.FailH1 <= r.FailH0 {
		t.Fatalf("H1 rate %v <= H0 rate %v", r.FailH1, r.FailH0)
	}
	if r.TVDistance < 0.3 {
		t.Fatalf("TV distance %v too small", r.TVDistance)
	}
	// The common offset shifts both hypothesis PDFs right of nominal.
	if r.H0.Mean() <= r.Nominal.Mean() {
		t.Fatalf("H0 mean %v <= nominal mean %v", r.H0.Mean(), r.Nominal.Mean())
	}
	if r.H1.Mean() <= r.H0.Mean() {
		t.Fatalf("H1 mean %v <= H0 mean %v", r.H1.Mean(), r.H0.Mean())
	}
}

func TestRunSeqPairAttackE8(t *testing.T) {
	tr, err := transcript.Run(context.Background(), transcript.Spec{Attack: "seqpair", Seed: 5, Expurgate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Recovered {
		t.Fatalf("expurgated attack did not recover the key: %+v", tr)
	}
	if tr.Queries <= 0 || tr.EnrolledKeyBits <= 0 {
		t.Fatalf("degenerate transcript %+v", tr)
	}
}

func TestRunTempCoAttackE9(t *testing.T) {
	tr, err := transcript.Run(context.Background(), transcript.Spec{Attack: "tempco", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if tr.RelationsFound == 0 || tr.RelationsRight != tr.RelationsFound {
		t.Fatalf("relations %d/%d", tr.RelationsRight, tr.RelationsFound)
	}
	if tr.MaskBitsFound == 0 || tr.MaskBitsRight != tr.MaskBitsFound {
		t.Fatalf("mask bits %d/%d", tr.MaskBitsRight, tr.MaskBitsFound)
	}
}

func TestRunGroupBasedAttackE5(t *testing.T) {
	tr, err := transcript.Run(context.Background(), transcript.Spec{Attack: "groupbased", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Recovered {
		t.Fatalf("group-based attack failed: %+v", tr)
	}
}

func TestRunMaskingAttackE6(t *testing.T) {
	tr, err := transcript.Run(context.Background(), transcript.Spec{Attack: "masking", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Recovered {
		t.Fatalf("masking attack failed: %+v", tr)
	}
}

func TestRunChainAttackE7(t *testing.T) {
	tr, err := transcript.Run(context.Background(), transcript.Spec{Attack: "chain", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Recovered {
		t.Fatalf("chain attack failed: %+v", tr)
	}
	if tr.MaxHypotheses != 16 {
		t.Fatalf("max hypotheses %d, want 16 (Fig. 6c)", tr.MaxHypotheses)
	}
}

func TestEntropyAccountingE11(t *testing.T) {
	rows := EntropyAccounting(15, []float64{0.2, 0.5, 1.0, 2.0})
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.EntropyBits <= 0 || r.EntropyBits > r.TotalBits {
			t.Fatalf("row %d: entropy %v outside (0, %v]", i, r.EntropyBits, r.TotalBits)
		}
		// Packed key length is within one bit per group of the entropy.
		if float64(r.KeyBits) < r.EntropyBits-float64(r.Groups) {
			t.Fatalf("row %d: key bits %d below entropy %v - groups", i, r.KeyBits, r.EntropyBits)
		}
	}
	// Larger thresholds force more, smaller groups and lose entropy.
	if rows[len(rows)-1].EntropyBits >= rows[0].EntropyBits {
		t.Fatalf("entropy did not decrease with threshold: %+v", rows)
	}
}

func TestFuzzyResistanceE12(t *testing.T) {
	r, err := FuzzyResistance(17, 40)
	if err != nil {
		t.Fatal(err)
	}
	// The LISA side channel is wide open; the fuzzy extractor's is shut.
	if r.SeqPairAdvantage < 0.5 {
		t.Fatalf("seqpair advantage %v, want large", r.SeqPairAdvantage)
	}
	if r.FuzzyAdvantage > 0.1 {
		t.Fatalf("fuzzy advantage %v, want ~0", r.FuzzyAdvantage)
	}
}

func TestAblationStoragePolicyA1(t *testing.T) {
	r, err := AblationStoragePolicy(context.Background(), 19, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.SortedOnesFraction != 1.0 {
		t.Fatalf("sorted storage ones fraction %v, want 1", r.SortedOnesFraction)
	}
	if r.RandomizedOnesFraction < 0.35 || r.RandomizedOnesFraction > 0.65 {
		t.Fatalf("randomized ones fraction %v, want ~0.5", r.RandomizedOnesFraction)
	}
}

func TestAblationStrategyA2(t *testing.T) {
	r, err := AblationStrategy(context.Background(), 21)
	if err != nil {
		t.Fatal(err)
	}
	if !r.BothRecovered {
		t.Fatal("one strategy failed to recover the key")
	}
	if r.SequentialQueries >= r.FixedSampleQueries {
		t.Fatalf("sequential %d >= fixed %d queries", r.SequentialQueries, r.FixedSampleQueries)
	}
}

func TestAblationOffsetSizeA4(t *testing.T) {
	rows, err := AblationOffsetSize(context.Background(), 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// At the full radius the rates must be well separated and the
	// attack must succeed.
	last := rows[len(rows)-1]
	if last.PElevated-last.PNominal < 0.5 {
		t.Fatalf("full-offset separation %v too small", last.PElevated-last.PNominal)
	}
	if !last.Recovered {
		t.Fatal("full-offset attack failed")
	}
	// Below the radius the calibration separation collapses (both
	// injected patterns stay correctable).
	first := rows[0]
	if first.PElevated-first.PNominal > 0.2 {
		t.Fatalf("offset=1 separation %v unexpectedly large", first.PElevated-first.PNominal)
	}
}

// TestAttackSuccessCampaignMultiSeed is the R1 soundness figure: the
// attack-success campaign recovers every key and every tempco relation
// over five seeds.
func TestAttackSuccessCampaignMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	res, err := campaign.Run(context.Background(), campaign.Spec{
		Task: "attack-success", BaseSeed: 1000, Seeds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"chain-recovered", "groupbased-recovered", "masking-recovered",
		"seqpair-recovered", "tempco-relation-accuracy",
	}
	if len(res.Aggregates) != len(want) {
		t.Fatalf("aggregates %+v, want metrics %v", res.Aggregates, want)
	}
	for i, a := range res.Aggregates {
		if a.Metric != want[i] || a.N != 5 {
			t.Fatalf("aggregate %d: %s over %d seeds, want %s over 5", i, a.Metric, a.N, want[i])
		}
		if a.Mean < 0.99 {
			t.Errorf("%s mean %v", a.Metric, a.Mean)
		}
	}
}

// Every ctx-first experiment entry point must stop on a cancelled
// context with an error that says so, rather than run its attacks to
// completion.
func TestExperimentsHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := map[string]func() error{
		"A1": func() error { _, err := AblationStoragePolicy(ctx, 19, 4); return err },
		"A2": func() error { _, err := AblationStrategy(ctx, 21); return err },
		"A4": func() error { _, err := AblationOffsetSize(ctx, 23); return err },
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}
