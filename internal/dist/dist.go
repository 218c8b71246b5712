// Package dist runs the exhaustive valency checker as a
// coordinator/worker cluster over TCP.
//
// The coordinator owns the visited set, one explore.KeySet per input
// vector over configurations' compact visit keys (the same
// canonicalized encoding the local engines dedup on,
// valency.Options.AppendVisitKey).  A configuration's id is its
// admission index, so ids are dense and stable for the lifetime of the
// vector and across worker loss.
//
// Workers hold no authoritative state.  A worker receives batches of
// frontier items, each an (id, schedule) pair: the schedule is the
// scheduler-choice sequence (sim.Config.ReplaySchedule) that
// reconstructs the configuration from the initial one, since process
// and object states are opaque interfaces that cannot cross a process
// boundary directly.  The worker replays each item, verifies the
// reconstruction by re-encoding its visit key, safety-checks it
// (valency.Unsafe), expands its successors with the copy-on-write
// stepper, and ships every successor back as an emit — (parent id,
// visit key, schedule).  All effects of a batch travel in one atomic
// BATCH_DONE message, so a worker that dies mid-batch loses exactly the
// unacknowledged batches and nothing else: the coordinator puts their
// items back on the frontier for whichever worker is free next.
//
// The coordinator dedups emits against its visited set (a dedup hit
// records only the configuration-graph edge; a miss admits the key,
// assigns its id, and appends the item to the frontier), so the visited
// set has a single writer and needs no distributed consensus of its
// own.  An emit whose parent is not an item of the batch it acks is
// refused with its connection.  The frontier is one FIFO queue: every
// live worker with fewer than maxInflight batches outstanding is handed
// the next batchSize items.  A job terminates when the queue and every
// in-flight batch are empty; livelock is then decided by
// explore.HasCycle over the accumulated edges, exactly as in the
// parallel engine.  If any worker
// reports a violation the distributed result is discarded and the
// canonical serial checker re-runs locally, so the reported
// counterexample — kind, detail, trace — is byte-identical to a serial
// run's, regardless of cluster membership or timing (the same contract
// the local parallel engine keeps).
//
// Periodically, and when interrupted, the coordinator snapshots its
// entire authoritative state to disk (see checkpoint.go); a restarted
// coordinator resumes from the snapshot and finishes with the same
// verdict.  The snapshot is a frame.Record, the resume record the spill
// manifest and the vector cursor also are, so one rule refuses it
// (frame.ErrCannotResume); it and every wire message are decoded by
// frame.Reader.  Worker-loss recovery is
// the in-memory special case of the same idea: the visited set is the
// source of truth, workers are cache.
//
// The failure model is TCP's: frames on a connection arrive in order or
// the connection dies, so a frame is lost only with its connection.
// Every recovery path starts from a dead connection — an I/O error, a
// checksum failure, or a worker silent past DeadAfter — and re-queues
// that connection's unacknowledged batches.  The epoch and stale-ack
// guards remain, because a peer or proxy may still reorder or repeat
// whole frames, and network input is validated, never trusted.
package dist

import (
	"errors"
	"time"

	"randsync/internal/valency"
)

// Job names one distributed check: a protocol instance plus either one
// input vector or the all-vectors sweep.
type Job struct {
	// Spec resolves to the protocol instance through internal/zoo.
	Spec ProtoSpec
	// Inputs is the input vector to check when AllInputs is false.
	Inputs []int64
	// AllInputs sweeps every binary input vector over Spec.N processes
	// in canonical order, aggregating like valency.CheckAllInputs.
	AllInputs bool
}

// Options configure the coordinator.  The zero value is usable.
type Options struct {
	// Shards is ignored: the coordinator's visited set is one key set
	// per vector, not a partition.  It stays because the bench/ module
	// sets it and bench/ is kept frozen so its measurements compare
	// across commits; it goes with the next change to bench/.
	Shards int
	// Valency carries the exploration options every engine shares:
	// MaxConfigs, NoSymmetry, Crash.  Workers selects how many
	// goroutines each worker fans a batch's items out over
	// (explore.Each).
	Valency valency.Options
	// CheckpointPath, when non-empty, enables periodic snapshots of the
	// coordinator state through Valency.SpillFS (nil: the real disk); if
	// the file already exists and matches the job, the run resumes from
	// it.  The file is removed on successful completion.
	CheckpointPath string
	// CheckpointEvery is the number of acknowledged batches between
	// snapshots (default 32 when CheckpointPath is set).  The cadence
	// counts batches, not configurations: a batch carries up to 128
	// frontier items, and all 128 whenever the frontier is wider than
	// the cluster's in-flight capacity.
	CheckpointEvery int
	// HeartbeatEvery is the ping interval (default 1s); a worker whose
	// last pong is older than DeadAfter (default 10s) is declared dead
	// even if its connection has not errored.  A worker answers pings
	// only between batches, so one stuck in a batch past DeadAfter is
	// treated exactly like a dead one: its batches re-queue.
	HeartbeatEvery time.Duration
	DeadAfter      time.Duration
	// Interrupt, when non-nil, makes the coordinator write a final
	// checkpoint and return valency.ErrInterrupted as soon as the
	// channel is closed — the graceful-shutdown seam behind the CLI's
	// SIGINT/SIGTERM handling and the tests' mid-run stops.  With
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
}

// ErrAllWorkersLost reports that every worker died before the job
// finished; with CheckpointPath set the partial state is on disk.
var ErrAllWorkersLost = errors.New("dist: all workers lost")

// batchSize caps the items per dispatched batch.
const batchSize = 128

// maxInflight caps unacknowledged batches per worker, bounding both the
// re-queue cost of a worker loss and the coordinator's outbound
// buffering.
const maxInflight = 2

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
