package device

import (
	"sync"
	"testing"

	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// TestQueriesCounterConcurrency hammers the shared query counter from
// many goroutines. Run under -race (the CI default) it proves the
// counter the batched oracle backend aggregates across forks cannot
// race with readers.
func TestQueriesCounterConcurrency(t *testing.T) {
	var b base
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.addQuery()
				_ = b.Queries()
			}
		}()
	}
	wg.Wait()
	if got := b.Queries(); got != goroutines*perG {
		t.Fatalf("counter lost updates: %d, want %d", got, goroutines*perG)
	}
}

// TestForkedDevicesQueryConcurrently drives App on independent forks in
// parallel while the parent's counter is read — the exact access pattern
// of attack.BatchTarget evaluating hypothesis arms.
func TestForkedDevicesQueryConcurrently(t *testing.T) {
	d, err := EnrollSeqPair(SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   20,
	}, rng.New(1), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const forks, queries = 8, 25
	var wg sync.WaitGroup
	for f := 0; f < forks; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			fork := d.Fork(rng.StreamSeed(42, uint64(f)))
			for i := 0; i < queries; i++ {
				fork.App()
				_ = d.Queries() // concurrent parent reads must not race
			}
			if fork.Queries() != queries {
				t.Errorf("fork %d counted %d queries, want %d", f, fork.Queries(), queries)
			}
		}(f)
	}
	wg.Wait()
	if d.Queries() != 0 {
		t.Fatalf("parent counter moved: %d", d.Queries())
	}
	// The parent must still reconstruct after all forks are done.
	ok := 0
	for i := 0; i < 10; i++ {
		if d.App() {
			ok++
		}
	}
	if ok < 8 {
		t.Fatalf("parent broken after forked queries: %d/10", ok)
	}
}

// TestForkDeterminism pins the fork contract the batched backend's
// worker-invariance proof rests on: equal seeds yield identical query
// transcripts.
func TestForkDeterminism(t *testing.T) {
	d, err := EnrollSeqPair(SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   20,
	}, rng.New(3), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.Fork(777), d.Fork(777)
	for i := 0; i < 50; i++ {
		if a.App() != b.App() {
			t.Fatalf("equal-seed forks diverged at query %d", i)
		}
	}
}

// TestForkQueryIsolationBothNoiseModels pins the fork contract under
// the silicon noise model (the counter model, now the only one): a
// fork's queries succeed at a healthy enrollment, accrue on the fork's
// own counter, and never leak into the parent's — the invariant
// attack.BatchTarget's accounting relies on.
func TestForkQueryIsolationBothNoiseModels(t *testing.T) {
	t.Run(silicon.NoiseCounter.String(), func(t *testing.T) {
		d, err := EnrollSeqPair(SeqPairParams{
			Rows: 8, Cols: 16,
			ThresholdMHz: 0.8,
			Policy:       pairing.RandomizedStorage,
			Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps:   20,
		}, rng.New(42), rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		f := d.Fork(777)
		ok := 0
		for i := 0; i < 32; i++ {
			if f.App() {
				ok++
			}
		}
		if ok < 30 {
			t.Fatalf("forked device unhealthy: %d/32 reconstructions", ok)
		}
		if f.Queries() != 32 {
			t.Fatalf("fork counted %d queries, want 32", f.Queries())
		}
		if d.Queries() != 0 {
			t.Fatalf("fork queries leaked into parent: %d", d.Queries())
		}
	})
}
