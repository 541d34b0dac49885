package repro

// Campaign goldens: every registered campaign task is pinned at one
// campaign cell (base seed 1, 8 seeds; see campaign.Golden) by a
// JSON file under testdata/campaigns/ holding its outcomes and
// aggregates. The test regenerates each file at two worker counts and
// byte-compares both against the committed bytes, so a change to any
// task's output, or to the engine's worker-count invariance, fails here.
//
// Regenerate after an intentional behavior change with
//
//	go test -run 'TestGolden' -update
//
// (CI regenerates via `puf-bench -golden testdata` and fails on
// `git diff`.)

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	_ "repro/internal/experiments" // registers every campaign task
)

func TestGoldenCampaigns(t *testing.T) {
	dir := filepath.Join("testdata", "campaigns")
	tasks := campaign.Tasks()
	want := make(map[string]bool, len(tasks))
	for _, task := range tasks {
		name := task.Name + ".json"
		want[name] = true
		t.Run(task.Name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(dir, name)
			if *updateGolden {
				got, err := campaign.Golden(context.Background(), task.Name, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("registered task %s has no campaign golden (regenerate with -update): %v", task.Name, err)
			}
			for _, workers := range []int{1, 4} {
				got, err := campaign.Golden(context.Background(), task.Name, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, committed) {
					t.Errorf("campaign drift in %s at workers=%d: regenerated output differs from the committed golden.\n"+
						"If the behavior change is intentional, run `go test -run TestGoldenCampaigns -update`.", path, workers)
				}
			}
		})
	}

	// A committed file that no registered task produces would silently
	// stop being checked: fail instead.
	if !*updateGolden {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			if !want[e.Name()] {
				t.Errorf("stale campaign golden %s: no registered task produces it", e.Name())
			}
		}
	}
}
