// Package dist runs the exhaustive valency checker as a
// coordinator/worker cluster over TCP.
//
// The coordinator owns the visited set, partitioned into S fingerprint
// shards: a configuration's compact visit key (the same canonicalized
// encoding the local engines dedup on, valency.Options.AppendVisitKey)
// fingerprints to fp, and shard fp % S owns it.  Per shard the
// coordinator keeps the admitted keys in admission order, so a
// configuration's global id — gid = localID·S + shard — is stable for
// the lifetime of the job and across worker loss.
//
// Workers hold no authoritative state.  A worker receives batches of
// frontier items, each a (gid, schedule) pair: the schedule is the
// scheduler-choice sequence (sim.Config.ReplaySchedule) that
// reconstructs the configuration from the initial one, since process
// and object states are opaque interfaces that cannot cross a process
// boundary directly.  The worker replays each item, verifies the
// reconstruction by re-encoding its visit key, safety-checks it
// (valency.Unsafe), expands its successors with the copy-on-write
// stepper, and ships every successor back as an emit — (parent gid,
// visit key, schedule).  All effects of a batch travel in one atomic
// BATCH_DONE message, so a worker that dies mid-batch loses exactly the
// unacknowledged batches and nothing else: the coordinator re-queues
// their items and reassigns the dead worker's shards to survivors.
//
// The coordinator dedups emits against its shard mirrors (a dedup hit
// records only the configuration-graph edge; a miss admits the key,
// assigns its gid, and queues the item for the owning worker), so the
// visited set has a single writer and needs no distributed consensus of
// its own.  A job terminates when every shard queue and every in-flight
// batch is empty; livelock is then decided by explore.HasCycle over the
// accumulated edges, exactly as in the parallel engine.  If any worker
// reports a violation the distributed result is discarded and the
// canonical serial checker re-runs locally, so the reported
// counterexample — kind, detail, trace — is byte-identical to a serial
// run's, regardless of cluster membership or timing (the same contract
// the local parallel engine keeps).
//
// Periodically, and before an induced abort, the coordinator snapshots
// its entire authoritative state to disk (see checkpoint.go); a
// restarted coordinator resumes from the snapshot and finishes with the
// same verdict.  Worker-loss recovery is the in-memory special case of
// the same idea: the mirror is the source of truth, workers are cache.
package dist

import (
	"errors"
	"fmt"
	"time"

	"randsync/internal/valency"
)

// Job names one distributed check: a protocol instance plus either one
// input vector or the all-vectors sweep.
type Job struct {
	// Spec resolves to the protocol instance (see registry.go).
	Spec ProtoSpec
	// Inputs is the input vector to check when AllInputs is false.
	Inputs []int64
	// AllInputs sweeps every binary input vector over Spec.N processes
	// in canonical order, aggregating like valency.CheckAllInputs.
	AllInputs bool
}

// Options configure the coordinator.  The zero value is usable.
type Options struct {
	// Shards is the fingerprint-partition width S.  More shards smooth
	// the queue-length imbalance across workers; the default is 64.
	Shards int
	// BatchSize caps the items per dispatched batch (default 128).
	BatchSize int
	// MaxInflight caps unacknowledged batches per worker (default 2),
	// bounding both the re-dispatch cost of a worker loss and the
	// coordinator's outbound buffering.
	MaxInflight int
	// Valency carries the exploration options every engine shares:
	// MaxConfigs, NoSymmetry, Crash.  Workers selects each worker's
	// local pool width for processing its batch.
	Valency valency.Options
	// CheckpointPath, when non-empty, enables periodic snapshots of the
	// coordinator state; if the file already exists and matches the
	// job, the run resumes from it.  The file is removed on successful
	// completion.
	CheckpointPath string
	// CheckpointEvery is the number of acknowledged batches between
	// snapshots (default 32 when CheckpointPath is set).
	CheckpointEvery int
	// HeartbeatEvery is the ping interval (default 1s); a worker whose
	// last pong is older than DeadAfter (default 10s) is declared dead
	// even if its connection has not errored.
	HeartbeatEvery time.Duration
	DeadAfter      time.Duration
	// AbortAfterBatches, when positive, makes the coordinator write a
	// final checkpoint and return ErrAborted after that many
	// acknowledged batches — the kill/resume test seam.
	AbortAfterBatches int64
	// Interrupt, when non-nil, makes the coordinator write a final
	// checkpoint and return ErrInterrupted as soon as the channel is
	// closed — the graceful-shutdown seam behind the CLI's
	// SIGINT/SIGTERM handling and the service daemon's drain.  With
	// CheckpointPath unset the run still stops promptly, but there is
	// nothing durable to resume from.
	Interrupt <-chan struct{}
	// NetTimeout bounds every read and write on every cluster
	// connection (default 30s): a peer that stops moving bytes errors
	// out instead of wedging a goroutine forever.  The coordinator's
	// heartbeat traffic keeps healthy connections well inside the bound.
	NetTimeout time.Duration
	// RejoinGrace is how long a coordinator with zero live workers
	// waits for a rejoin before giving up with ErrAllWorkersLost
	// (default 15s).  A checkpoint is written the moment the last
	// worker drops, so even expiry loses at most the in-flight work.
	RejoinGrace time.Duration
	// SlowAfter is the pong-silence window after which a live worker is
	// treated as slow: its queued shards dispatch to responsive peers
	// and its in-flight batches are speculatively re-dispatched
	// (default DeadAfter/2).  Duplicate completions are harmless —
	// effects are idempotent against the mirror.
	SlowAfter time.Duration
	// BatchTimeout re-dispatches any batch unacknowledged for this long
	// even if its owner still pongs (default DeadAfter) — the recovery
	// path for a single BATCH or DONE frame lost on the wire.
	BatchTimeout time.Duration
	// MemBudget, when positive, caps the coordinator's retained mirror
	// key bytes: past 3/4 of the budget dispatch backpressure clamps
	// in-flight batches, and past the budget admission stops and the
	// report is marked incomplete — the distributed analogue of
	// valency.Options.MemBudget.
	MemBudget int64
}

// ErrAborted reports an induced abort (Options.AbortAfterBatches): the
// job state is checkpointed, not lost.
var ErrAborted = errors.New("dist: aborted after batch quota; checkpoint written")

// ErrInterrupted reports a graceful interrupt (Options.Interrupt): the
// job state is checkpointed, not lost — rerun the same command (or
// restart the daemon) to resume from the snapshot.
var ErrInterrupted = errors.New("dist: interrupted; checkpoint written")

// ErrAllWorkersLost reports that every worker died before the job
// finished; with CheckpointPath set the partial state is on disk.
var ErrAllWorkersLost = errors.New("dist: all workers lost")

func (o Options) shards() int {
	if o.Shards <= 0 {
		return 64
	}
	return o.Shards
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return 128
	}
	return o.BatchSize
}

func (o Options) maxInflight() int {
	if o.MaxInflight <= 0 {
		return 2
	}
	return o.MaxInflight
}

func (o Options) checkpointEvery() int64 {
	if o.CheckpointEvery <= 0 {
		return 32
	}
	return int64(o.CheckpointEvery)
}

func (o Options) heartbeatEvery() time.Duration {
	if o.HeartbeatEvery <= 0 {
		return time.Second
	}
	return o.HeartbeatEvery
}

func (o Options) deadAfter() time.Duration {
	if o.DeadAfter <= 0 {
		return 10 * time.Second
	}
	return o.DeadAfter
}

func (o Options) netTimeout() time.Duration {
	if o.NetTimeout <= 0 {
		return 30 * time.Second
	}
	return o.NetTimeout
}

func (o Options) rejoinGrace() time.Duration {
	if o.RejoinGrace <= 0 {
		return 15 * time.Second
	}
	return o.RejoinGrace
}

func (o Options) slowAfter() time.Duration {
	if o.SlowAfter <= 0 {
		return o.deadAfter() / 2
	}
	return o.SlowAfter
}

func (o Options) batchTimeout() time.Duration {
	if o.BatchTimeout <= 0 {
		return o.deadAfter()
	}
	return o.BatchTimeout
}

func (o Options) validate(job Job) error {
	if _, err := Resolve(job.Spec); err != nil {
		return err
	}
	if !job.AllInputs && len(job.Inputs) == 0 {
		return errors.New("dist: job needs Inputs or AllInputs")
	}
	if job.AllInputs && job.Spec.N > 16 {
		return fmt.Errorf("dist: AllInputs over n=%d is 2^%d vectors", job.Spec.N, job.Spec.N)
	}
	return nil
}

// gid packing: a key admitted to shard s as that shard's k-th key has
// gid = k·S + s.  Gids are allocation-order stable per shard, so they
// survive worker reassignment; they are not dense across shards, so
// cycle detection remaps them (denseIDs) before running HasCycle.
func gidOf(localID int64, shard, S int) int64 { return localID*int64(S) + int64(shard) }

func gidShard(gid int64, S int) int   { return int(gid % int64(S)) }
func gidLocal(gid int64, S int) int64 { return gid / int64(S) }
