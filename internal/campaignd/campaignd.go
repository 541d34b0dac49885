// Package campaignd is the fleet-scale campaign service: a long-running
// job manager that executes campaign specs by sharding their seed range
// into fixed-size chunks over a bounded worker pool, checkpointing one
// JSONL record per completed shard, and streaming partial aggregates to
// subscribers.
//
// The whole design leans on one property of the engine underneath:
// every task instance derives its randomness purely from (base seed,
// task index) via rng.StreamSeed, so a shard's outcomes are identical
// no matter which worker runs it, when, or how many times. That makes
// sharding, retry, and crash-resume trivially safe — a daemon killed
// mid-sweep and restarted from its state directory finishes with final
// aggregates bit-identical to an uninterrupted one-shot campaign.Run of
// the same spec, at any worker count. The streaming partial folds
// outcomes in shard-completion order and serves progress only: once
// every shard is checkpointed, the full outcome list is reassembled in
// task-index order and handed to campaign.Finalize, which folds it
// through a fresh campaign.Partial exactly as an uninterrupted run does.
//
// Layout: this file defines the wire types (Spec, State, JobStatus,
// Event); manager.go runs jobs; checkpoint.go owns the JSONL state
// files; http.go serves the /v1 API plus /healthz and /metrics.
package campaignd

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/silicon"
)

// ErrDraining is returned by Submit while the daemon is draining for
// shutdown: intake is closed, in-flight shards are finishing. The HTTP
// layer maps it to 503 so clients with retry backoff ride through a
// rolling restart.
var ErrDraining = errors.New("campaignd: draining; not accepting new campaigns")

// InternalError marks a Submit failure that is the daemon's fault, not
// the spec's — job-ID entropy exhaustion, checkpoint-file creation —
// so the HTTP layer answers 500 instead of blaming the client with 400.
type InternalError struct{ Err error }

func (e *InternalError) Error() string { return e.Err.Error() }
func (e *InternalError) Unwrap() error { return e.Err }

// Spec is the wire form of a campaign request (POST /v1/campaigns).
type Spec struct {
	// Task is the registered campaign task name.
	Task string `json:"task"`
	// BaseSeed is the campaign base seed; task i runs with
	// rng.StreamSeed(BaseSeed, i).
	BaseSeed uint64 `json:"base_seed"`
	// Seeds is the number of task instances, in [1, 2^20].
	Seeds int `json:"seeds"`
	// Workers bounds the job's worker pool (0 = GOMAXPROCS). Workers
	// run whole shards, so effective parallelism is min(Workers,
	// remaining shards).
	Workers int `json:"workers,omitempty"`
	// Noise names the silicon noise model for attack-backed tasks.
	// Single-valued: Submit persists "" as "counter", the only accepted
	// model; "stream" (removed) and unknown names fail validation.
	Noise string `json:"noise,omitempty"`
	// ShardSize is the number of seeds per checkpointed shard
	// (0 = the daemon default). Smaller shards checkpoint more often;
	// the final numbers are identical for any value.
	ShardSize int `json:"shard_size,omitempty"`
}

// maxSeeds bounds a job's seed count. A job allocates its outcome
// table up front, one campaign.Outcome (24 bytes) per seed: 24 MiB at
// the cap before any seed runs. Each completed seed then holds its
// metrics map, a few hundred bytes, so a finished job at the cap keeps
// about 0.25 GiB. Without a bound one request for 2^40 seeds ends the
// daemon in an out-of-memory runtime fatal that no recover catches,
// and again on every restart that recovers its checkpoint.
const maxSeeds = 1 << 20

// Validate rejects specs the daemon could not execute. It is the
// single gate between the HTTP layer and the job manager, so malformed
// submissions fail with a 4xx before any state is created.
func (s Spec) Validate() error {
	if s.Task == "" {
		return fmt.Errorf("campaignd: spec has no task")
	}
	if _, ok := campaign.Lookup(s.Task); !ok {
		return fmt.Errorf("campaignd: unknown task %q", s.Task)
	}
	if s.Seeds <= 0 {
		return fmt.Errorf("campaignd: seeds must be > 0 (got %d)", s.Seeds)
	}
	if s.Seeds > maxSeeds {
		return fmt.Errorf("campaignd: seeds must be at most %d (got %d)", maxSeeds, s.Seeds)
	}
	if s.Workers < 0 {
		return fmt.Errorf("campaignd: workers must be >= 0 (got %d)", s.Workers)
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("campaignd: shard_size must be >= 0 (got %d)", s.ShardSize)
	}
	if err := silicon.CheckNoise(s.Noise); err != nil {
		return fmt.Errorf("campaignd: %w", err)
	}
	return nil
}

// campaignSpec maps the wire spec onto the engine's Spec.
func (s Spec) campaignSpec() campaign.Spec {
	return campaign.Spec{
		Task:     s.Task,
		BaseSeed: s.BaseSeed,
		Seeds:    s.Seeds,
		Workers:  s.Workers,
		Options:  campaign.Options{Noise: s.Noise},
	}
}

// State is a job's lifecycle state.
type State string

const (
	// StateRunning covers both fresh and resumed execution.
	StateRunning State = "running"
	// StateDone means every shard completed and the final Result is
	// available.
	StateDone State = "done"
	// StateFailed means the job hit an internal error (finalization,
	// closed checkpoint); the checkpointed shards remain on disk but the
	// job is terminal.
	StateFailed State = "failed"
	// StateCancelled means the job was cancelled via the API. Terminal.
	StateCancelled State = "cancelled"
	// StateQuarantined means every schedulable shard ran but one or more
	// poison shards exhausted their retry budget (task error or panic on
	// every attempt) and were quarantined. The job is terminal, the
	// healthy shards' partial aggregates are available, and the
	// quarantined shard indices are enumerated in the status — never a
	// silent hang, never a silently wrong result.
	StateQuarantined State = "quarantined"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateQuarantined
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID       string     `json:"id"`
	State    State      `json:"state"`
	Spec     Spec       `json:"spec"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	// Shard/seed progress. SeedsDone counts seeds in completed shards.
	ShardsDone  int `json:"shards_done"`
	ShardsTotal int `json:"shards_total"`
	SeedsDone   int `json:"seeds_done"`
	SeedsTotal  int `json:"seeds_total"`
	// Error is set for failed and quarantined jobs.
	Error string `json:"error,omitempty"`
	// Quarantined enumerates the shard indices that exhausted their
	// retry budget (quarantined jobs only), sorted ascending.
	Quarantined []int `json:"quarantined,omitempty"`
	// Aggregates are the streaming partial aggregates over completed
	// shards (Wilson intervals computed at read time). For done jobs
	// they are superseded by Result.Aggregates.
	Aggregates []campaign.Aggregate `json:"aggregates,omitempty"`
	// Result is the final campaign result, present on detail views of
	// done jobs — bit-identical to a one-shot campaign.Run of Spec.
	Result *campaign.Result `json:"result,omitempty"`
}

// Health is the daemon's liveness/readiness snapshot behind /healthz.
type Health struct {
	// Draining is set between the drain signal and process exit.
	Draining bool
	// Degraded is set once a shard's checkpoint write has persistently
	// failed: the affected jobs keep running (and completing) in memory,
	// but a crash before they finish would re-run the lost shards.
	Degraded bool
	// CheckpointErrors counts individual checkpoint write/sync failures
	// (including ones a retry later recovered).
	CheckpointErrors int64
	// LostDurabilityShards counts shards whose checkpoint record was
	// abandoned after the retry budget — completed in memory only.
	LostDurabilityShards int64
}

// Event is one server-sent progress notification for a job. A terminal
// event carries the terminal State and closes the stream.
type Event struct {
	JobID       string               `json:"job_id"`
	State       State                `json:"state"`
	ShardsDone  int                  `json:"shards_done"`
	ShardsTotal int                  `json:"shards_total"`
	SeedsDone   int                  `json:"seeds_done"`
	SeedsTotal  int                  `json:"seeds_total"`
	Aggregates  []campaign.Aggregate `json:"aggregates,omitempty"`
	Error       string               `json:"error,omitempty"`
	Quarantined []int                `json:"quarantined,omitempty"`
}
