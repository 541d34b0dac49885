package campaignd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// Options configures a Manager.
type Options struct {
	// StateDir is the checkpoint directory (required). It is created if
	// missing.
	StateDir string
	// ShardSize is the default seeds-per-shard for specs that omit it
	// (0 = 8).
	ShardSize int
	// Throttle, when > 0, sleeps after each completed shard. It exists
	// for operational rate-limiting and for tests that must observe a
	// job mid-sweep; it has no effect on results.
	Throttle time.Duration
	// RetryBackoff is the base of the exponential shard-retry backoff
	// (0 = DefaultRetryBackoff); successive attempts double it, capped
	// at RetryMaxBackoff (0 = DefaultRetryMaxBackoff), with
	// deterministic per-(shard, attempt) jitter in [0.5x, 1.5x).
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// CheckpointBackoff is the pause between checkpoint write attempts
	// (0 = DefaultCheckpointBackoff).
	CheckpointBackoff time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Defaults for the knobs Options leaves zero, and the fixed retry
// budgets (DefaultShardAttempts, DefaultCheckpointAttempts).
const (
	// DefaultShardSize is the seeds-per-shard used when neither the spec
	// nor the daemon names one.
	DefaultShardSize = 8
	// DefaultShardAttempts bounds how many times a failing shard (task
	// error or recovered panic) is executed before it is quarantined.
	// Because outcomes are pure functions of (base seed, task index), a
	// retry that succeeds is byte-identical to a first-try success.
	DefaultShardAttempts = 3
	// DefaultRetryBackoff / DefaultRetryMaxBackoff shape the shard-retry
	// exponential backoff.
	DefaultRetryBackoff    = 25 * time.Millisecond
	DefaultRetryMaxBackoff = time.Second
	// DefaultCheckpointAttempts / DefaultCheckpointBackoff shape the
	// checkpoint-write retry. When the attempts are exhausted the
	// shard's durability is abandoned — the job keeps running in memory,
	// /healthz turns degraded, and the shard re-runs after a restart.
	DefaultCheckpointAttempts = 3
	DefaultCheckpointBackoff  = 10 * time.Millisecond
)

// Manager owns the job table, the per-job shard schedulers, and the
// checkpoint store. All exported methods are safe for concurrent use.
type Manager struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// draining flips when Drain is called: Submit rejects, schedulers
	// stop feeding new shards (drainCh closes), in-flight shards finish
	// and checkpoint.
	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	mu   sync.Mutex
	jobs map[string]*job

	counters counters
}

// job is one campaign under management. Fields past mu are guarded by
// it; the scheduler holds it only for bookkeeping, never while running
// task instances.
type job struct {
	id      string
	created time.Time
	spec    Spec // normalized: ShardSize > 0
	task    campaign.Task

	mu         sync.Mutex
	state      State
	errMsg     string
	finished   *time.Time
	shards     int
	done       []bool
	doneShards int
	seedsDone  int
	outcomes   []campaign.Outcome
	partial    *campaign.Partial
	result     *campaign.Result
	cancelled  bool
	cancel     context.CancelFunc
	ckpt       *checkpointFile
	// quarantined maps poison shard index → one-line failure summary
	// (retry budget exhausted; job ends StateQuarantined).
	quarantined map[int]string
	// lostShards counts shards whose checkpoint record was abandoned
	// after the write-retry budget (completed in memory only).
	lostShards int
	subs       map[int]chan Event
	nextSub    int
}

// New builds a Manager over a state directory. Call Recover to reload
// and resume checkpointed jobs, and Close to stop.
func New(opts Options) (*Manager, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("campaignd: Options.StateDir is required")
	}
	if opts.ShardSize <= 0 {
		opts.ShardSize = DefaultShardSize
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	if opts.RetryMaxBackoff <= 0 {
		opts.RetryMaxBackoff = DefaultRetryMaxBackoff
	}
	if opts.CheckpointBackoff <= 0 {
		opts.CheckpointBackoff = DefaultCheckpointBackoff
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("campaignd: state dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*job),
	}, nil
}

// Close stops every running job (without recording a terminal state, so
// they resume on the next Recover) and waits for the schedulers to
// drain.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
	m.closeCheckpoints()
}

// Drain is the graceful half of shutdown: it stops intake (Submit
// returns ErrDraining), stops feeding new shards to every scheduler,
// lets the in-flight shards finish and checkpoint, and returns once the
// schedulers have exited — or, past the timeout, cancels the stragglers
// hard (they stay resumable, exactly like Close). The return value
// reports whether the drain completed cleanly within the deadline.
// Either way, no completed-and-checkpointed shard is ever re-run by the
// next Recover.
func (m *Manager) Drain(timeout time.Duration) bool {
	m.draining.Store(true)
	m.drainOnce.Do(func() { close(m.drainCh) })
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	clean := true
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		clean = false
		m.logf("campaignd: drain deadline (%s) exceeded; cancelling in-flight shards", timeout)
		m.cancel()
		<-done
	}
	m.cancel()
	m.closeCheckpoints()
	return clean
}

// closeCheckpoints releases any checkpoint file a resumable job still
// holds (finish closes them on every path, so this is a backstop).
func (m *Manager) closeCheckpoints() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.ckpt != nil {
			j.ckpt.Close()
			j.ckpt = nil
		}
		j.mu.Unlock()
	}
}

// Health snapshots the daemon's operational state for /healthz.
func (m *Manager) Health() Health {
	lost := m.counters.lostDurabilityShards.Load()
	return Health{
		Draining:             m.draining.Load(),
		Degraded:             lost > 0,
		CheckpointErrors:     m.counters.checkpointErrors.Load(),
		LostDurabilityShards: lost,
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// newJobID returns a fresh random job identifier. Entropy exhaustion is
// reported as an error (surfacing as HTTP 500 through Submit), not a
// panic: a degraded entropy pool must not take the daemon down.
func newJobID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("campaignd: job id: %w", err)
	}
	return "c" + hex.EncodeToString(b[:]), nil
}

// numShards is the shard count for a normalized spec.
func numShards(seeds, shardSize int) int {
	return (seeds + shardSize - 1) / shardSize
}

// shardBounds returns the task-index range [from, to) of shard s.
func shardBounds(s, seeds, shardSize int) (from, to int) {
	from = s * shardSize
	to = min(from+shardSize, seeds)
	return from, to
}

// Submit validates a spec, creates its checkpoint file, and starts the
// job. The returned status is the job's initial snapshot.
func (m *Manager) Submit(spec Spec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	if spec.ShardSize == 0 {
		spec.ShardSize = m.opts.ShardSize
	}
	if spec.Noise == "" {
		spec.Noise = silicon.NoiseCounter.String()
	}
	task, _ := campaign.Lookup(spec.Task)

	if m.draining.Load() {
		return JobStatus{}, ErrDraining
	}
	if m.ctx.Err() != nil {
		return JobStatus{}, fmt.Errorf("campaignd: manager is shut down")
	}
	id, err := newJobID()
	if err != nil {
		return JobStatus{}, &InternalError{Err: err}
	}
	created := time.Now().UTC().Truncate(time.Millisecond)
	ckpt, err := createCheckpoint(m.opts.StateDir, id, created, spec)
	if err != nil {
		return JobStatus{}, &InternalError{Err: err}
	}
	j := m.newJob(id, created, spec, task)
	j.ckpt = ckpt

	m.mu.Lock()
	m.jobs[id] = j
	m.mu.Unlock()
	m.counters.jobsSubmitted.Add(1)
	m.logf("campaignd: job %s submitted: task=%s seeds=%d shard=%d workers=%d",
		id, spec.Task, spec.Seeds, spec.ShardSize, spec.Workers)

	m.start(j)
	return j.status(false), nil
}

// newJob builds the in-memory job shell (no scheduler yet).
func (m *Manager) newJob(id string, created time.Time, spec Spec, task campaign.Task) *job {
	shards := numShards(spec.Seeds, spec.ShardSize)
	return &job{
		id:       id,
		created:  created,
		spec:     spec,
		task:     task,
		state:    StateRunning,
		shards:   shards,
		done:     make([]bool, shards),
		outcomes: make([]campaign.Outcome, spec.Seeds),
		partial:  campaign.NewPartial(task.Binary),
		subs:     make(map[int]chan Event),
	}
}

// Recover scans the state directory, reloads every checkpointed job,
// and resumes the unfinished ones — skipping checkpointed shards, so a
// daemon killed mid-sweep picks up exactly where the last fsynced
// record left off.
func (m *Manager) Recover() error {
	entries, err := os.ReadDir(m.opts.StateDir)
	if err != nil {
		return fmt.Errorf("campaignd: scan state dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), checkpointExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(m.opts.StateDir, name)
		lj, err := loadCheckpoint(path)
		if err != nil {
			m.logf("campaignd: skipping %s: %v", name, err)
			continue
		}
		if err := m.adopt(lj); err != nil {
			m.logf("campaignd: skipping %s: %v", name, err)
		}
	}
	return nil
}

// adopt installs one replayed job and resumes it if unfinished.
func (m *Manager) adopt(lj *loadedJob) error {
	// Validate also bounds the seed count before newJob sizes the
	// outcome table by it: a record naming more than maxSeeds seeds is
	// refused here, not allocated.
	if err := lj.spec.Validate(); err != nil {
		return err
	}
	if lj.spec.ShardSize == 0 {
		// Pre-normalization record; shard layout must match what the
		// original run used, so refuse rather than guess.
		return fmt.Errorf("campaignd: job %s has no shard size", lj.id)
	}
	if lj.spec.Noise == "" {
		// Written before Submit normalized the noise model, when empty
		// meant the removed stream model: resuming it under counter
		// noise would finalize a mixed result, so refuse rather than
		// guess.
		return fmt.Errorf("campaignd: job %s has no noise model (written when empty meant the removed stream model)", lj.id)
	}
	task, _ := campaign.Lookup(lj.spec.Task)
	j := m.newJob(lj.id, lj.created, lj.spec, task)
	if lj.dropped > 0 {
		m.logf("campaignd: job %s: ignored %d corrupt checkpoint record(s)", lj.id, lj.dropped)
	}

	// Replay checkpointed shards in shard order.
	for s := 0; s < j.shards; s++ {
		outs, ok := lj.shards[s]
		if !ok {
			continue
		}
		from, to := shardBounds(s, j.spec.Seeds, j.spec.ShardSize)
		if len(outs) != to-from || !shardMatches(outs, from, j.spec.BaseSeed) {
			m.logf("campaignd: job %s: shard %d does not match the spec, re-running", lj.id, s)
			continue
		}
		j.done[s] = true
		j.doneShards++
		j.seedsDone += len(outs)
		copy(j.outcomes[from:to], outs)
		for _, o := range outs {
			j.partial.Observe(o)
		}
	}

	switch {
	case lj.state == StateDone || (lj.state == "" && j.doneShards == j.shards):
		// Completed (or crashed after the last shard record): rebuild
		// the final result; no scheduler needed.
		res, err := campaign.Finalize(j.spec.campaignSpec(), j.outcomes)
		if err != nil {
			return fmt.Errorf("campaignd: job %s: finalize: %w", lj.id, err)
		}
		j.state, j.result, j.finished = StateDone, res, lj.finished
		m.install(j)
		m.counters.jobsRecovered.Add(1)
		m.logf("campaignd: job %s recovered complete (%d shards)", j.id, j.shards)
	case lj.state.terminal():
		j.state, j.errMsg, j.finished = lj.state, lj.errMsg, lj.finished
		if len(lj.quarantined) > 0 {
			j.quarantined = make(map[int]string, len(lj.quarantined))
			for _, s := range lj.quarantined {
				// Per-shard failure text lives in the error message; the
				// record pins only the indices.
				j.quarantined[s] = "quarantined (see error)"
			}
		}
		m.install(j)
		m.counters.jobsRecovered.Add(1)
		m.logf("campaignd: job %s recovered %s", j.id, j.state)
	default:
		// Interrupted mid-sweep: reopen the file and resume.
		ckpt, err := openCheckpoint(m.opts.StateDir, j.id)
		if err != nil {
			return err
		}
		j.ckpt = ckpt
		m.install(j)
		m.counters.jobsRecovered.Add(1)
		m.counters.jobsResumed.Add(1)
		m.logf("campaignd: job %s resuming: %d/%d shards checkpointed", j.id, j.doneShards, j.shards)
		m.start(j)
	}
	return nil
}

// shardMatches reports whether outs are the outcomes of the task
// indices from, from+1, ... of a campaign with base seed base. A shard
// record's digest covers only its outcomes, so a record that outlived a
// change to the spec record (a corrupted base seed) passes its digest
// check and is caught here.
func shardMatches(outs []campaign.Outcome, from int, base uint64) bool {
	for k, o := range outs {
		if o.Index != from+k || o.Seed != rng.StreamSeed(base, uint64(from+k)) {
			return false
		}
	}
	return true
}

func (m *Manager) install(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[j.id] = j
}

// start launches the shard scheduler for a job.
func (m *Manager) start(j *job) {
	ctx, cancel := context.WithCancel(m.ctx)
	j.mu.Lock()
	j.cancel = cancel
	pending := make([]int, 0, j.shards-j.doneShards)
	for s, d := range j.done {
		if !d {
			pending = append(pending, s)
		}
	}
	j.mu.Unlock()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		err := campaign.ForEach(ctx, m.drainCh, len(pending), j.spec.Workers, func(shardCtx context.Context, _, k int) error {
			s := pending[k]
			if err := m.runShardResilient(shardCtx, j, s); err != nil {
				return err
			}
			if m.opts.Throttle > 0 {
				select {
				case <-time.After(m.opts.Throttle):
				case <-shardCtx.Done():
				case <-m.drainCh:
				}
			}
			return nil
		})
		m.finish(j, err)
	}()
}

// runShardResilient is one shard's full fault envelope: each execution
// attempt runs under a panic-recovery scope (a panicking task becomes a
// *campaign.PanicError carrying the stack, never a dead daemon), task
// errors and panics retry with exponential backoff plus deterministic
// jitter, and a shard that fails every attempt is quarantined — the job
// carries on with its remaining shards instead of hanging or failing
// silently. Cancellation and shutdown are never retried or quarantined:
// they propagate so the scheduler can stop.
func (m *Manager) runShardResilient(ctx context.Context, j *job, s int) error {
	var last error
	for attempt := 1; attempt <= DefaultShardAttempts; attempt++ {
		var outs []campaign.Outcome
		err := campaign.Call(func() error {
			var rerr error
			outs, rerr = m.runShard(ctx, j, s)
			return rerr
		})
		if err == nil {
			return m.completeShard(j, s, outs)
		}
		if ctx.Err() != nil {
			// Cancellation (job cancel or daemon shutdown) mid-shard —
			// not a shard fault.
			return ctx.Err()
		}
		last = err
		var pe *campaign.PanicError
		if errors.As(err, &pe) {
			m.counters.panicsRecovered.Add(1)
			m.logf("campaignd: job %s shard %d attempt %d/%d panicked: %v\n%s",
				j.id, s, attempt, DefaultShardAttempts, pe.Value, pe.Stack)
		} else {
			m.logf("campaignd: job %s shard %d attempt %d/%d failed: %v", j.id, s, attempt, DefaultShardAttempts, err)
		}
		if attempt < DefaultShardAttempts {
			m.counters.shardRetries.Add(1)
			if !sleepCtx(ctx, retryBackoff(m.opts.RetryBackoff, m.opts.RetryMaxBackoff, j.spec.BaseSeed, s, attempt)) {
				return ctx.Err()
			}
		}
	}
	m.quarantineShard(j, s, last)
	return nil
}

// retryBackoff is the attempt'th shard-retry delay: exponential from
// base, capped at max, jittered deterministically by (campaign base
// seed, shard, attempt) so chaos runs replay their timing envelope.
func retryBackoff(base, max time.Duration, baseSeed uint64, shard, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d <= 0 || d > max {
		d = max
	}
	h := rng.StreamSeed(baseSeed^(uint64(shard)*0x9e3779b97f4a7c15), uint64(attempt))
	u := float64(h>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + u))
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// quarantineShard records a poison shard: the retry budget is spent,
// the shard's outcomes are abandoned, and the job will terminate
// StateQuarantined (with the shard enumerated) once the remaining
// shards finish.
func (m *Manager) quarantineShard(j *job, s int, err error) {
	summary := firstLine(err.Error())
	j.mu.Lock()
	if j.quarantined == nil {
		j.quarantined = make(map[int]string)
	}
	j.quarantined[s] = summary
	j.mu.Unlock()
	m.counters.shardsQuarantined.Add(1)
	m.logf("campaignd: job %s shard %d quarantined after %d attempts: %s", j.id, s, DefaultShardAttempts, summary)
}

// firstLine trims an error message to its first line — panic errors
// carry whole goroutine stacks, which belong in the log, not in a
// status field enumerating shards.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// runShard executes one shard's task instances sequentially. Each
// instance's seed depends only on (base seed, task index), so the
// result is independent of scheduling — and of how many attempts it
// took to get here. The "shard.run" injection point models a fault at
// the top of the attempt.
func (m *Manager) runShard(ctx context.Context, j *job, s int) ([]campaign.Outcome, error) {
	if err := faultinject.Fire("shard.run"); err != nil {
		return nil, err
	}
	from, to := shardBounds(s, j.spec.Seeds, j.spec.ShardSize)
	outs := make([]campaign.Outcome, 0, to-from)
	// A fresh device pool per shard attempt: seeds within the shard run
	// sequentially on this goroutine and reuse enrolled-device state,
	// while a retried attempt starts clean — pooled state never leaks
	// across a panic or error into the retry (task outputs are
	// pool-independent by contract, so results stay byte-identical to a
	// one-shot campaign.Run).
	opts := campaign.Options{Noise: j.spec.Noise, Pool: campaign.NewPool()}
	for i := from; i < to; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := rng.StreamSeed(j.spec.BaseSeed, uint64(i))
		metrics, err := j.task.Run(ctx, seed, opts)
		if err != nil {
			return nil, fmt.Errorf("%s seed %#x: %w", j.task.Name, seed, err)
		}
		outs = append(outs, campaign.Outcome{Index: i, Seed: seed, Metrics: metrics})
	}
	return outs, nil
}

// completeShard checkpoints a finished shard, folds it into the
// streaming partial, and notifies subscribers. A checkpoint write that
// keeps failing past the retry budget degrades durability instead of
// failing the job: the shard's outcomes stay in memory (the final
// result is unaffected), the daemon turns degraded on /healthz, and the
// shard would re-run after a restart — deterministically, to the same
// bytes.
func (m *Manager) completeShard(j *job, s int, outs []campaign.Outcome) error {
	from, to := shardBounds(s, j.spec.Seeds, j.spec.ShardSize)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ckpt == nil {
		return fmt.Errorf("campaignd: job %s checkpoint closed", j.id)
	}
	durable := false
	for attempt := 1; attempt <= DefaultCheckpointAttempts; attempt++ {
		n, err := j.ckpt.appendShard(s, from, to, outs)
		if err == nil {
			m.counters.checkpointBytes.Add(int64(n))
			durable = true
			break
		}
		m.counters.checkpointErrors.Add(1)
		m.logf("campaignd: job %s shard %d checkpoint attempt %d/%d: %v",
			j.id, s, attempt, DefaultCheckpointAttempts, err)
		if attempt < DefaultCheckpointAttempts {
			sleepCtx(m.ctx, time.Duration(attempt)*m.opts.CheckpointBackoff)
		}
	}
	if !durable {
		j.lostShards++
		m.counters.lostDurabilityShards.Add(1)
		m.logf("campaignd: job %s shard %d: durability lost, continuing in memory", j.id, s)
	}
	j.done[s] = true
	j.doneShards++
	j.seedsDone += len(outs)
	copy(j.outcomes[from:to], outs)
	for _, o := range outs {
		j.partial.Observe(o)
	}
	m.counters.shardsCompleted.Add(1)
	m.counters.seedsCompleted.Add(int64(len(outs)))
	j.broadcastLocked()
	return nil
}

// finish records a job's terminal state — or, when the manager itself
// is shutting down or draining, leaves the job resumable and records
// nothing beyond the shards already checkpointed.
func (m *Manager) finish(j *job, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()

	switch {
	case err == nil && len(j.quarantined) > 0:
		// Every schedulable shard ran; the poison ones are enumerated.
		j.state, j.errMsg = StateQuarantined, quarantineMessage(j.quarantined, DefaultShardAttempts)
	case err == nil:
		res, ferr := campaign.Finalize(j.spec.campaignSpec(), j.outcomes)
		if ferr != nil {
			j.state, j.errMsg = StateFailed, ferr.Error()
		} else {
			j.state, j.result = StateDone, res
		}
	case j.cancelled:
		j.state = StateCancelled
	case errors.Is(err, campaign.ErrDrained) || m.ctx.Err() != nil:
		// Graceful drain or daemon shutdown: no terminal record; Recover
		// resumes this job from the shards already checkpointed.
		if j.ckpt != nil {
			j.ckpt.Close()
			j.ckpt = nil
		}
		j.closeSubsLocked()
		return
	default:
		j.state, j.errMsg = StateFailed, err.Error()
	}

	now := time.Now().UTC().Truncate(time.Millisecond)
	j.finished = &now
	if j.ckpt != nil {
		rec := statusRecord{Type: "status", State: j.state, Error: j.errMsg,
			Quarantined: sortedShardList(j.quarantined), Finished: now}
		if werr := j.ckpt.append(rec); werr != nil {
			m.counters.checkpointErrors.Add(1)
			m.logf("campaignd: job %s: status record: %v", j.id, werr)
		}
		j.ckpt.Close()
		j.ckpt = nil
	}
	m.logf("campaignd: job %s %s (%d/%d shards)", j.id, j.state, j.doneShards, j.shards)
	j.broadcastLocked()
	j.closeSubsLocked()
}

// quarantineMessage renders the terminal error for a quarantined job:
// every poison shard with its last failure, in shard order.
func quarantineMessage(q map[int]string, attempts int) string {
	shards := make([]int, 0, len(q))
	for s := range q {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	var b strings.Builder
	fmt.Fprintf(&b, "%d shard(s) quarantined after %d attempts each: ", len(shards), attempts)
	for i, s := range shards {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "shard %d: %s", s, q[s])
	}
	return b.String()
}

// sortedShardList flattens a quarantine map to its sorted shard indices
// (nil for none, keeping JSON omitempty clean).
func sortedShardList(q map[int]string) []int {
	if len(q) == 0 {
		return nil
	}
	out := make([]int, 0, len(q))
	for s := range q {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Get returns one job's status; detail includes the final Result for
// done jobs.
func (m *Manager) Get(id string, detail bool) (JobStatus, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(detail), true
}

// List returns every job's summary status, newest first.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status(false))
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel stops a running job. The already-checkpointed shards stay on
// disk, but the job is terminal and will not be resumed.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("campaignd: no job %q", id)
	}
	j.mu.Lock()
	if j.state.terminal() {
		st := j.state
		j.mu.Unlock()
		return JobStatus{}, fmt.Errorf("campaignd: job %s is already %s", id, st)
	}
	j.cancelled = true
	j.state = StateCancelled
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	st, _ := m.Get(id, false)
	return st, nil
}

// Subscribe returns a channel of progress events for a job, starting
// with an immediate snapshot. The channel closes after the terminal
// event (immediately, for already-terminal jobs). The returned cancel
// func releases the subscription.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("campaignd: no job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 16)
	ch <- j.eventLocked()
	if j.state.terminal() || j.subs == nil {
		close(ch)
		return ch, func() {}, nil
	}
	idx := j.nextSub
	j.nextSub++
	j.subs[idx] = ch
	cancel := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, live := j.subs[idx]; live {
			delete(j.subs, idx)
			close(ch)
		}
	}
	return ch, cancel, nil
}

// eventLocked snapshots the job as an Event. Callers hold j.mu.
func (j *job) eventLocked() Event {
	return Event{
		JobID:       j.id,
		State:       j.state,
		ShardsDone:  j.doneShards,
		ShardsTotal: j.shards,
		SeedsDone:   j.seedsDone,
		SeedsTotal:  j.spec.Seeds,
		Aggregates:  j.partial.Aggregates(),
		Error:       j.errMsg,
		Quarantined: sortedShardList(j.quarantined),
	}
}

// broadcastLocked pushes the current snapshot to every subscriber,
// dropping the oldest queued event when a subscriber lags — progress
// events are cumulative snapshots, so the latest always supersedes.
func (j *job) broadcastLocked() {
	ev := j.eventLocked()
	for _, ch := range j.subs {
		for {
			select {
			case ch <- ev:
			default:
				select {
				case <-ch:
				default:
				}
				continue
			}
			break
		}
	}
}

// closeSubsLocked closes every subscription after a terminal event.
func (j *job) closeSubsLocked() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// status snapshots the job for the API.
func (j *job) status(detail bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Created:     j.created,
		Finished:    j.finished,
		ShardsDone:  j.doneShards,
		ShardsTotal: j.shards,
		SeedsDone:   j.seedsDone,
		SeedsTotal:  j.spec.Seeds,
		Error:       j.errMsg,
		Quarantined: sortedShardList(j.quarantined),
	}
	if j.state == StateDone {
		if detail {
			st.Result = j.result
		}
	} else {
		st.Aggregates = j.partial.Aggregates()
	}
	return st
}
