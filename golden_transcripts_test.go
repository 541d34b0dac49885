package repro

// The repository's single determinism contract. Every golden value that
// used to live in hardcoded Go tables (golden_seed_test.go,
// golden_counter_test.go) now lives as JSON under testdata/transcripts/,
// one file per attack's cell group, produced by the transcript harness.
// This test walks every cell and byte-compares the regenerated
// transcript files against the committed ones, so keys,
// recovery outcomes and the SPRT-driven oracle-query counts (sensitive
// to every single App() outcome) are pinned bit-for-bit.
//
// Regenerate after an intentional behavior change with
//
//	go test -run TestGoldenTranscripts -update
//
// (CI regenerates via `puf-bench -golden testdata` and fails on
// `git diff` — goldens can never silently drift from the harness.)

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/transcript"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden files under testdata/transcripts/ and testdata/campaigns/")

func TestGoldenTranscripts(t *testing.T) {
	dir := filepath.Join("testdata", "transcripts")
	files := transcript.GoldenFiles()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			trs, err := transcript.RunAll(context.Background(), files[name])
			if err != nil {
				t.Fatal(err)
			}
			got, err := transcript.Marshal(trs)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name)
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("transcript drift in %s: regenerated output differs from committed golden.\n"+
					"If the behavior change is intentional, run `go test -run TestGoldenTranscripts -update`.", path)
			}
		})
	}

	// Staleness sweep: a committed golden file that the matrix no longer
	// produces would silently stop being checked — fail instead.
	if !*updateGolden {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			if _, ok := files[e.Name()]; !ok {
				t.Errorf("stale golden file %s: not produced by transcript.GoldenFiles()", e.Name())
			}
		}
	}
}
