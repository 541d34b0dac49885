package campaignd

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

func resultJSON(t *testing.T, res *campaign.Result) string {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// The acceptance criterion of the subsystem: run a campaign, hard-stop
// the job manager mid-sweep after at least one checkpointed shard,
// restart a fresh manager over the same state directory, and the
// resumed job's final Result must be byte-identical (JSON) to an
// uninterrupted one-shot campaign.Run of the same spec — at two
// different worker counts.
func TestCrashResumeBitIdentical(t *testing.T) {
	for _, workers := range []int{2, 5} {
		spec := Spec{Task: "campaignd-test-walk", BaseSeed: 40, Seeds: 30, Workers: workers}
		oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
		if err != nil {
			t.Fatal(err)
		}
		want := resultJSON(t, oneShot)

		dir := t.TempDir()
		m1 := newTestManager(t, Options{StateDir: dir, ShardSize: 2, Throttle: 10 * time.Millisecond})
		st, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Hard-stop after >= 2 checkpointed shards but before the end.
		deadline := time.Now().Add(20 * time.Second)
		for {
			cur, _ := m1.Get(st.ID, false)
			if cur.ShardsDone >= 2 {
				break
			}
			if cur.State != StateRunning || time.Now().After(deadline) {
				t.Fatalf("workers=%d: job reached %s with %d shards before the kill", workers, cur.State, cur.ShardsDone)
			}
			time.Sleep(time.Millisecond)
		}
		m1.Close()
		interrupted, _ := m1.Get(st.ID, false)
		if interrupted.ShardsDone >= interrupted.ShardsTotal {
			t.Fatalf("workers=%d: job finished before the kill; nothing to resume", workers)
		}
		t.Logf("workers=%d: killed with %d/%d shards checkpointed", workers, interrupted.ShardsDone, interrupted.ShardsTotal)

		// Restart: the job must be picked up and resumed automatically.
		m2 := newTestManager(t, Options{StateDir: dir, ShardSize: 2})
		if err := m2.Recover(); err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, m2, st.ID)
		if final.State != StateDone {
			t.Fatalf("workers=%d: resumed job ended %s (%s)", workers, final.State, final.Error)
		}
		if got := resultJSON(t, final.Result); got != want {
			t.Fatalf("workers=%d: resumed result differs from uninterrupted run:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// A second kill/restart cycle must also converge — resume is not a
// one-shot affair.
func TestDoubleCrashResume(t *testing.T) {
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 123, Seeds: 24, Workers: 2}
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, oneShot)

	dir := t.TempDir()
	m := newTestManager(t, Options{StateDir: dir, ShardSize: 1, Throttle: 10 * time.Millisecond})
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	for cycle := 0; cycle < 2; cycle++ {
		target := 3 * (cycle + 1)
		for {
			cur, _ := m.Get(id, false)
			if cur.ShardsDone >= target || cur.State != StateRunning {
				break
			}
			time.Sleep(time.Millisecond)
		}
		m.Close()
		m = newTestManager(t, Options{StateDir: dir, ShardSize: 1, Throttle: 10 * time.Millisecond})
		if err := m.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Get(id, false); !ok {
			t.Fatalf("cycle %d: job lost across restart", cycle)
		}
	}
	// Let the final incarnation run to completion at full speed.
	final := waitTerminal(t, m, id)
	if final.State != StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if got := resultJSON(t, final.Result); got != want {
		t.Fatalf("double-resumed result differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// A checkpoint file with a truncated final line (the signature of a
// hard kill mid-append) must load: intact shards are trusted, the torn
// record is re-run.
func TestRecoverToleratesTruncatedTail(t *testing.T) {
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 314, Seeds: 12, Workers: 2}
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, oneShot)

	// Produce a complete state dir, then mutilate the file: drop the
	// done record and tear the last shard record in half.
	dir := t.TempDir()
	m1 := newTestManager(t, Options{StateDir: dir, ShardSize: 3})
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, st.ID)
	m1.Close()

	path := filepath.Join(dir, st.ID+checkpointExt)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	if len(lines) != 1+4+1 { // spec + 4 shards + status
		t.Fatalf("unexpected checkpoint shape: %d lines", len(lines))
	}
	torn := strings.Join(lines[:4], "\n") + "\n" + lines[4][:len(lines[4])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{StateDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m2, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if got := resultJSON(t, final.Result); got != want {
		t.Fatalf("result after torn-tail recovery differs:\n%s\nvs\n%s", got, want)
	}
}

// A tampered shard record (digest mismatch) is discarded and re-run
// rather than trusted.
func TestRecoverRejectsDigestMismatch(t *testing.T) {
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 99, Seeds: 8, Workers: 1}
	dir := t.TempDir()
	m1 := newTestManager(t, Options{StateDir: dir, ShardSize: 2})
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, st.ID)
	m1.Close()

	path := filepath.Join(dir, st.ID+checkpointExt)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a metric digit inside the first shard record and drop the
	// status record so the job resumes.
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	tampered := strings.Replace(lines[1], `"walk-sum":`, `"walk-sum":1`, 1)
	if tampered == lines[1] {
		t.Fatal("tamper target not found in shard record")
	}
	out := strings.Join(append([]string{lines[0], tampered}, lines[2:len(lines)-1]...), "\n") + "\n"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}

	lj, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if lj.dropped == 0 {
		t.Fatal("tampered record was not dropped")
	}
	if _, ok := lj.shards[0]; ok {
		t.Fatal("tampered shard 0 was trusted")
	}

	// Full recovery still converges to the uninterrupted result.
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, Options{StateDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m2, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if got, want := resultJSON(t, final.Result), resultJSON(t, oneShot); got != want {
		t.Fatalf("result after digest-mismatch recovery differs:\n%s\nvs\n%s", got, want)
	}
}

// countShardRecords replays a checkpoint file the dumb way — raw JSONL
// lines — and returns how many times each shard index was recorded,
// plus whether a terminal status record is present. Tests use it to
// prove "zero re-runs" at the file level rather than trusting counters.
func countShardRecords(t *testing.T, path string) (shards map[int]int, hasStatus bool) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shards = make(map[int]int)
	for _, line := range strings.Split(strings.TrimRight(string(blob), "\n"), "\n") {
		var rec struct {
			Type  string `json:"type"`
			Shard int    `json:"shard"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable checkpoint line %q: %v", line, err)
		}
		switch rec.Type {
		case "shard":
			shards[rec.Shard]++
		case "status":
			hasStatus = true
		}
	}
	return shards, hasStatus
}

// Graceful drain then restart: Drain lets the in-flight shards finish
// and checkpoint, the restarted daemon resumes from exactly that
// frontier, and — unlike the hard-kill path, where an uncheckpointed
// in-flight shard is legitimately re-run — not a single shard is ever
// executed twice. The final result is byte-identical to an
// uninterrupted run.
func TestDrainThenRestartZeroRerun(t *testing.T) {
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 808, Seeds: 24, Workers: 2}
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, oneShot)

	dir := t.TempDir()
	m1 := newTestManager(t, Options{StateDir: dir, ShardSize: 2, Throttle: 10 * time.Millisecond})
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few shards land, then drain mid-sweep.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, _ := m1.Get(st.ID, false)
		if cur.ShardsDone >= 2 {
			break
		}
		if cur.State != StateRunning || time.Now().After(deadline) {
			t.Fatalf("job reached %s with %d shards before the drain", cur.State, cur.ShardsDone)
		}
		time.Sleep(time.Millisecond)
	}
	if !m1.Drain(20 * time.Second) {
		t.Fatal("drain did not complete cleanly within its deadline")
	}
	drained, _ := m1.Get(st.ID, false)
	if drained.ShardsDone >= drained.ShardsTotal {
		t.Fatal("job finished before the drain; nothing to resume")
	}
	t.Logf("drained with %d/%d shards checkpointed", drained.ShardsDone, drained.ShardsTotal)

	// The file must hold exactly the checkpointed shards, once each, and
	// no terminal status record (the job is resumable, not failed).
	path := filepath.Join(dir, st.ID+checkpointExt)
	before, hasStatus := countShardRecords(t, path)
	if hasStatus {
		t.Fatal("drained job wrote a terminal status record")
	}
	if len(before) != drained.ShardsDone {
		t.Fatalf("checkpoint holds %d shards, status says %d", len(before), drained.ShardsDone)
	}
	for s, n := range before {
		if n != 1 {
			t.Fatalf("shard %d recorded %d times before restart", s, n)
		}
	}

	// Restart and resume to completion.
	m2 := newTestManager(t, Options{StateDir: dir, ShardSize: 2})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	if got := resultJSON(t, final.Result); got != want {
		t.Fatalf("drain-resumed result differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	// Zero re-runs: every shard index appears exactly once, and the
	// pre-drain records were not rewritten.
	after, _ := countShardRecords(t, path)
	if len(after) != final.ShardsTotal {
		t.Fatalf("final checkpoint holds %d shards, want %d", len(after), final.ShardsTotal)
	}
	for s, n := range after {
		if n != 1 {
			t.Fatalf("shard %d recorded %d times — a shard was re-run", s, n)
		}
	}
}

// Recover must rebuild completed jobs (result included) without
// re-running anything, and ignore files that are not checkpoints.
func TestRecoverCompletedJob(t *testing.T) {
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 7, Seeds: 10, Workers: 2}
	dir := t.TempDir()
	m1 := newTestManager(t, Options{StateDir: dir, ShardSize: 4})
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, waitTerminal(t, m1, st.ID).Result)
	m1.Close()

	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.jsonl"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{StateDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, ok := m2.Get(st.ID, true)
	if !ok || got.State != StateDone {
		t.Fatalf("completed job not recovered: ok=%v %+v", ok, got)
	}
	if resultJSON(t, got.Result) != want {
		t.Fatal("recovered result differs from original")
	}
	if jobs := m2.List(); len(jobs) != 1 {
		t.Fatalf("junk files became jobs: %+v", jobs)
	}
}

// noiseRewrittenCheckpoint leaves an unfinished job on disk whose spec
// record names the given noise model — "" drops the field, as in a
// record written before Submit normalized it, when empty meant the
// removed stream model. It returns the state directory and the job id.
func noiseRewrittenCheckpoint(t *testing.T, noise string) (string, string) {
	repl := ""
	if noise != "" {
		repl = `"noise":"` + noise + `",`
	}
	return specRewrittenCheckpoint(t, `"noise":"counter",`, repl)
}

// specRewrittenCheckpoint leaves an unfinished job on disk whose spec
// record has the field text from replaced by to: it runs a throttled
// job to its first checkpointed shard, hard-stops the manager, and
// rewrites the persisted spec record. It returns the state directory
// and the job id.
func specRewrittenCheckpoint(t *testing.T, from, to string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	m1 := newTestManager(t, Options{StateDir: dir, ShardSize: 2, Throttle: 10 * time.Millisecond})
	st, err := m1.Submit(Spec{Task: "campaignd-test-walk", BaseSeed: 5, Seeds: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Noise != "counter" {
		t.Fatalf("Submit kept noise %q, want it normalized to \"counter\"", st.Spec.Noise)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, _ := m1.Get(st.ID, false)
		if cur.ShardsDone >= 1 {
			break
		}
		if cur.State != StateRunning || time.Now().After(deadline) {
			t.Fatalf("job reached %s with %d shards before the kill", cur.State, cur.ShardsDone)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()
	if cur, _ := m1.Get(st.ID, false); cur.ShardsDone >= cur.ShardsTotal {
		t.Fatal("job finished before the kill; nothing to resume")
	}

	path := filepath.Join(dir, st.ID+checkpointExt)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(blob), "\n", 2)
	if !strings.Contains(lines[0], from) {
		t.Fatalf("spec record %s does not contain %s", lines[0], from)
	}
	lines[0] = strings.Replace(lines[0], from, to, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, st.ID
}

// recoverRefuses restarts a manager over dir and checks that job id was
// refused — not installed, not resumed — with a logged reason
// containing want.
func recoverRefuses(t *testing.T, dir, id, want string) {
	t.Helper()
	var mu sync.Mutex
	var logs []string
	m, err := New(Options{StateDir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	if st, ok := m.Get(id, false); ok {
		t.Fatalf("job %s was adopted (state %s); want it refused", id, st.State)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, id) && strings.Contains(line, want) {
			return
		}
	}
	t.Fatalf("no log line for %s containing %q in %q", id, want, logs)
}

// An unfinished record without a noise model predates Submit's
// normalization, so its shards ran under the removed stream model:
// resuming it under counter noise would finalize a mixed result, so
// Recover refuses it, like a record without a shard size.
func TestRecoverRefusesLegacyEmptyNoise(t *testing.T) {
	dir, id := noiseRewrittenCheckpoint(t, "")
	recoverRefuses(t, dir, id, "has no noise model")
}

// A record naming the removed stream model is refused with a reason
// saying so.
func TestRecoverRefusesStreamModel(t *testing.T) {
	dir, id := noiseRewrittenCheckpoint(t, "stream")
	recoverRefuses(t, dir, id, "stream noise model was removed")
}

// A record naming more seeds than the daemon accepts is refused with a
// reason, before a job's outcome table is sized by it: recovering 2^40
// seeds would otherwise end in an out-of-memory fatal on every start.
func TestRecoverRefusesOverCapSeeds(t *testing.T) {
	dir, id := specRewrittenCheckpoint(t, `"seeds":20,`, `"seeds":1099511627776,`)
	recoverRefuses(t, dir, id, "seeds must be at most")
}

// The seeds cap is inclusive: maxSeeds validates, one more does not.
func TestSpecValidateSeedsCap(t *testing.T) {
	spec := Spec{Task: "campaignd-test-walk", Seeds: maxSeeds}
	if err := spec.Validate(); err != nil {
		t.Fatalf("seeds at the cap: %v", err)
	}
	spec.Seeds++
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "seeds must be at most") {
		t.Fatalf("seeds over the cap: %v, want the cap error", err)
	}
}
