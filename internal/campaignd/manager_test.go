package campaignd

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/rng"
)

func init() {
	// A deterministic CPU-ish task mirroring the campaign package's
	// test fixture: a random walk whose outcome depends on every draw.
	campaign.Register(campaign.Task{
		Name:   "campaignd-test-walk",
		Desc:   "deterministic random walk (campaignd test fixture)",
		Binary: []string{"recovered"},
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			src := rng.New(seed)
			var sum float64
			for i := 0; i < 500; i++ {
				sum += src.Norm()
			}
			return campaign.Metrics{
				"walk-sum":  sum,
				"recovered": campaign.Bool(sum > 0),
			}, nil
		},
	})
	campaign.Register(campaign.Task{
		Name: "campaignd-test-fail",
		Desc: "fails on seeds divisible by 3 (campaignd test fixture)",
		Run: func(_ context.Context, seed uint64, _ campaign.Options) (campaign.Metrics, error) {
			if seed%3 == 0 {
				return nil, fmt.Errorf("unlucky seed %#x", seed)
			}
			return campaign.Metrics{"ok": 1}, nil
		},
	})
}

// newTestManager builds a manager over a temp state dir and tears it
// down with the test.
func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.StateDir == "" {
		opts.StateDir = t.TempDir()
	}
	opts.Logf = t.Logf
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitTerminal polls a job until it leaves StateRunning.
func waitTerminal(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id, true)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State != StateRunning {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	panic("unreachable")
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := newTestManager(t, Options{ShardSize: 4})
	st, err := m.Submit(Spec{Task: "campaignd-test-walk", BaseSeed: 11, Seeds: 18, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsTotal != 5 || st.SeedsTotal != 18 {
		t.Fatalf("bad initial status: %+v", st)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q)", final.State, final.Error)
	}
	if final.ShardsDone != 5 || final.SeedsDone != 18 {
		t.Fatalf("progress incomplete at done: %+v", final)
	}
	if final.Result == nil || len(final.Result.Outcomes) != 18 {
		t.Fatalf("missing result: %+v", final.Result)
	}
}

// The sharded daemon execution must produce a Result byte-identical to
// a one-shot campaign.Run of the same spec, for any shard size and
// worker count.
func TestShardedMatchesOneShot(t *testing.T) {
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 77, Seeds: 26, Workers: 3}
	oneShot, err := campaign.Run(context.Background(), spec.campaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, oneShot)

	for _, shard := range []int{1, 4, 7, 26, 100} {
		m := newTestManager(t, Options{ShardSize: shard})
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, m, st.ID)
		if final.State != StateDone {
			t.Fatalf("shard=%d: state %s (%s)", shard, final.State, final.Error)
		}
		if got := resultJSON(t, final.Result); got != want {
			t.Fatalf("shard=%d: sharded result differs from one-shot run:\n%s\nvs\n%s", shard, got, want)
		}
	}
}

// A deterministically failing task no longer fail-fasts the whole job:
// each poison shard is retried to its attempt budget, quarantined, and
// the job terminates in the distinct quarantined state with the
// offending shards enumerated — while the healthy shards' outcomes
// survive in the partial aggregates.
func TestTaskFailureQuarantinesPoisonShards(t *testing.T) {
	m := newTestManager(t, Options{ShardSize: 2,
		RetryBackoff: time.Millisecond, RetryMaxBackoff: 2 * time.Millisecond})
	st, err := m.Submit(Spec{Task: "campaignd-test-fail", BaseSeed: 1, Seeds: 12, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateQuarantined || final.Error == "" {
		t.Fatalf("state = %s, error = %q", final.State, final.Error)
	}
	if len(final.Quarantined) == 0 || final.Quarantined[0] < 0 {
		t.Fatalf("no quarantined shards enumerated: %+v", final)
	}
	for _, s := range final.Quarantined {
		if !strings.Contains(final.Error, fmt.Sprintf("shard %d:", s)) {
			t.Fatalf("error does not name shard %d: %q", s, final.Error)
		}
	}
	// Healthy shards completed: done + quarantined must cover the job.
	if final.ShardsDone+len(final.Quarantined) != final.ShardsTotal {
		t.Fatalf("shards unaccounted for: done=%d quarantined=%d total=%d",
			final.ShardsDone, len(final.Quarantined), final.ShardsTotal)
	}
	if final.ShardsDone == 0 || len(final.Aggregates) == 0 {
		t.Fatalf("healthy shards lost: %+v", final)
	}
	if got := m.counters.shardsQuarantined.Load(); got != int64(len(final.Quarantined)) {
		t.Fatalf("quarantine counter %d vs %d shards", got, len(final.Quarantined))
	}
	if m.counters.shardRetries.Load() == 0 {
		t.Fatal("no retries recorded before quarantine")
	}

	// The quarantined verdict (state, error, shard list) survives a
	// restart without re-running anything.
	dir := m.opts.StateDir
	m.Close()
	m2 := newTestManager(t, Options{StateDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, ok := m2.Get(st.ID, true)
	if !ok || got.State != StateQuarantined {
		t.Fatalf("after restart: ok=%v state=%s", ok, got.State)
	}
	if fmt.Sprint(got.Quarantined) != fmt.Sprint(final.Quarantined) {
		t.Fatalf("quarantined shards lost across restart: %v vs %v", got.Quarantined, final.Quarantined)
	}
	if got.Error != final.Error {
		t.Fatalf("error lost across restart: %q vs %q", got.Error, final.Error)
	}
}

func TestCancelStopsJob(t *testing.T) {
	m := newTestManager(t, Options{ShardSize: 1, Throttle: 20 * time.Millisecond})
	st, err := m.Submit(Spec{Task: "campaignd-test-walk", BaseSeed: 5, Seeds: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one checkpointed shard so cancel lands mid-run.
	for {
		cur, _ := m.Get(st.ID, false)
		if cur.ShardsDone >= 1 || cur.State != StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s", final.State)
	}
	if final.ShardsDone >= final.ShardsTotal {
		t.Fatalf("cancel landed after completion: %+v", final)
	}
	// Cancelling a terminal job errors.
	if _, err := m.Cancel(st.ID); err == nil {
		t.Fatal("expected error cancelling a terminal job")
	}
	// A cancelled job stays cancelled across a restart.
	dir := m.opts.StateDir
	m.Close()
	m2 := newTestManager(t, Options{StateDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, ok := m2.Get(st.ID, true)
	if !ok || got.State != StateCancelled {
		t.Fatalf("after restart: ok=%v state=%s", ok, got.State)
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	m := newTestManager(t, Options{})
	bad := []Spec{
		{},
		{Task: "no-such-task", Seeds: 4},
		{Task: "campaignd-test-walk", Seeds: 0},
		{Task: "campaignd-test-walk", Seeds: -3},
		{Task: "campaignd-test-walk", Seeds: 4, Workers: -1},
		{Task: "campaignd-test-walk", Seeds: 4, ShardSize: -2},
		{Task: "campaignd-test-walk", Seeds: 4, Noise: "quantum"},
		{Task: "campaignd-test-walk", Seeds: 4, Noise: "stream"},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("spec %d (%+v) was accepted", i, spec)
		}
	}
	if got := m.List(); len(got) != 0 {
		t.Fatalf("rejected specs created jobs: %+v", got)
	}
}

func TestSubscribeStreamsProgressAndTerminal(t *testing.T) {
	m := newTestManager(t, Options{ShardSize: 3})
	st, err := m.Submit(Spec{Task: "campaignd-test-walk", BaseSeed: 9, Seeds: 12, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	events, release, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	var last Event
	sawAny := false
	for ev := range events {
		sawAny = true
		last = ev
	}
	if !sawAny {
		t.Fatal("no events before close")
	}
	if last.State != StateDone {
		t.Fatalf("last event state = %s", last.State)
	}
	if last.ShardsDone != 4 || last.SeedsDone != 12 {
		t.Fatalf("terminal event progress: %+v", last)
	}
	if len(last.Aggregates) == 0 {
		t.Fatal("terminal event has no aggregates")
	}
	// Subscribing to a terminal job yields a snapshot then a close.
	events2, release2, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	ev, open := <-events2
	if !open || ev.State != StateDone {
		t.Fatalf("terminal subscribe: open=%v state=%s", open, ev.State)
	}
	if _, open := <-events2; open {
		t.Fatal("terminal subscription not closed")
	}
}

func TestGetAndListUnknown(t *testing.T) {
	m := newTestManager(t, Options{})
	if _, ok := m.Get("nope", false); ok {
		t.Fatal("Get of unknown job succeeded")
	}
	if _, err := m.Cancel("nope"); err == nil {
		t.Fatal("Cancel of unknown job succeeded")
	}
	if _, _, err := m.Subscribe("nope"); err == nil {
		t.Fatal("Subscribe to unknown job succeeded")
	}
}
