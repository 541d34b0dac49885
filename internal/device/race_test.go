package device

import (
	"sync"
	"testing"
)

// TestQueriesCounterConcurrency hammers the shared query counter from
// many goroutines. Run under -race (the CI default) it proves a reader
// on another goroutine (a progress display) cannot race the querying
// goroutine's counter.
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
