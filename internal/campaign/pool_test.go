package campaign

import (
	"context"
	"sync"
	"testing"
)

func TestPoolGetCachesPerKey(t *testing.T) {
	p := NewPool()
	builds := 0
	build := func() any { builds++; return &builds }
	if p.Get("a", build) != p.Get("a", build) {
		t.Fatal("same key returned distinct values")
	}
	if builds != 1 {
		t.Fatalf("build ran %d times for one key", builds)
	}
	p.Get("b", build)
	if builds != 2 || p.Len() != 2 {
		t.Fatalf("distinct keys share a slot: builds=%d len=%d", builds, p.Len())
	}
}

func TestNilPoolAlwaysBuilds(t *testing.T) {
	var p *Pool
	builds := 0
	build := func() any { builds++; return builds }
	p.Get("a", build)
	p.Get("a", build)
	if builds != 2 {
		t.Fatalf("nil pool cached: %d builds", builds)
	}
	if p.Len() != 0 {
		t.Fatal("nil pool reports entries")
	}
}

func TestRunInstallsPerWorkerPools(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[*Pool]int)
	Register(Task{
		Name: "test-pool-observer",
		Desc: "records the pool each task instance receives",
		Run: func(_ context.Context, seed uint64, opt Options) (Metrics, error) {
			mu.Lock()
			seen[opt.Pool]++
			mu.Unlock()
			return Metrics{"ok": 1}, nil
		},
	})
	const workers, seeds = 3, 24
	if _, err := Run(context.Background(), Spec{Task: "test-pool-observer", Seeds: seeds, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if seen[nil] != 0 {
		t.Fatalf("%d task instances ran without a pool", seen[nil])
	}
	if len(seen) > workers {
		t.Fatalf("%d distinct pools for %d workers", len(seen), workers)
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != seeds {
		t.Fatalf("observed %d instances, want %d", total, seeds)
	}

	// A caller-supplied pool wins over the per-worker ones.
	seen = make(map[*Pool]int)
	own := NewPool()
	if _, err := Run(context.Background(), Spec{
		Task: "test-pool-observer", Seeds: 8, Workers: workers,
		Options: Options{Pool: own},
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[own] != 8 {
		t.Fatalf("caller-supplied pool not delivered to every instance: %v", seen)
	}
}
