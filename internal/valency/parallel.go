package valency

import (
	"time"

	"randsync/internal/explore"
	"randsync/internal/sim"
)

// Stats describes an engine's work for one Check.  The serial engine
// fills Workers, KeyBytes and Elapsed only; the parallel engines fill the
// rest.  An all-inputs sweep folds its vectors' Stats (see Stats.fold),
// so a vector-level sweep, whose vectors all run on the serial engine,
// carries the serial engine's fields only.  Stats are performance
// telemetry only and intentionally excluded from verdict comparisons:
// two runs with different worker counts produce the same Report fields
// but different Stats.
type Stats struct {
	// Workers is the number of exploration workers used.
	Workers int `json:"workers"`
	// Generated counts successor configurations computed (clone+step),
	// including ones the visited set then deduplicated.
	Generated int64 `json:"generated"`
	// DedupHits counts generated successors that were already visited.
	DedupHits int64 `json:"dedup_hits"`
	// Steals counts the sharded engine's whole-batch frontier steals
	// between workers (explore.ShardedStats.Steals).  Zero on the serial
	// engine and on vector-level all-inputs sweeps.
	Steals int64 `json:"steals,omitempty"`
	// PeakFrontier is the sharded engine's high-water mark of unexplored
	// configurations (explore.ShardedStats.PeakPending).  Zero on the
	// serial engine and on vector-level all-inputs sweeps.
	PeakFrontier int64 `json:"peak_frontier,omitempty"`
	// KeyBytes is the total interned visited-set key bytes retained at
	// the end of exploration — the memory the dedup structure holds, so
	// encoding regressions surface in the engine counters.
	KeyBytes int64 `json:"key_bytes"`
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration `json:"elapsed_ns"`

	// Visited-set census (explore.SetStats), zero on the serial engine,
	// whose visited set is one key set: Stripes is the number of
	// fingerprint shards (one per worker), Collisions counts true 64-bit
	// fingerprint collisions (distinct keys sharing a shard's fingerprint,
	// each confirmed by a full key comparison), and
	// MinStripeKeys/MaxStripeKeys bound the per-shard key counts — the
	// imbalance envelope of the fingerprint partition.  The distributed
	// engine reports no census: its coordinator's visited set is one key
	// set per vector.
	Stripes       int   `json:"stripes,omitempty"`
	Collisions    int64 `json:"collisions"`
	MinStripeKeys int64 `json:"min_stripe_keys,omitempty"`
	MaxStripeKeys int64 `json:"max_stripe_keys,omitempty"`

	// Shard-owned engine counters (explore.RunSharded), zero on the
	// serial engine.  HandoffBatches/HandoffItems
	// count cross-shard successor traffic — the only hot-path lock the
	// sharded engine takes, one acquisition per batch — and
	// RecycledBatches counts batch buffers reused from per-worker arenas
	// instead of allocated fresh.
	HandoffBatches  int64 `json:"handoff_batches,omitempty"`
	HandoffItems    int64 `json:"handoff_items,omitempty"`
	RecycledBatches int64 `json:"recycled_batches,omitempty"`

	// Distributed-engine counters, zero on local runs.  Shards is 1 on a
	// cluster run (the coordinator's one visited set), so it marks the
	// report as one; Batches is the number of work batches the
	// coordinator dispatched and acked, RemoteItems the frontier
	// configurations shipped over the wire, Recoveries the
	// worker-loss events survived, and Checkpoints the snapshots written.
	Shards      int   `json:"shards,omitempty"`
	Batches     int64 `json:"batches,omitempty"`
	RemoteItems int64 `json:"remote_items,omitempty"`
	Recoveries  int64 `json:"recoveries,omitempty"`
	Checkpoints int64 `json:"checkpoints,omitempty"`

	// Spill is the disk-tier telemetry of a CheckSpill run (key and byte
	// counts on disk, run/segment traffic, checkpoint and resume
	// counters), nil outside spill mode.
	Spill *explore.SpillStats `json:"spill,omitempty"`

	// Recovery is the distributed engine's self-healing audit trail,
	// nil on local runs; `distcheck -json` hoists it into the verdict
	// document so a soak run is auditable from one artifact.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
}

// RecoveryStats itemizes every recovery action a distributed run took:
// together with the chaos seed it is the reproducible record of what the
// cluster survived.
type RecoveryStats struct {
	// Reconnects counts re-handshakes accepted from a known worker
	// identity (rejoin, not a new peer).
	Reconnects int64 `json:"reconnects"`
	// WorkerDeaths counts workers declared dead (connection error,
	// heartbeat timeout, or outbound stall).
	WorkerDeaths int64 `json:"worker_deaths"`
	// RequeuedBatches counts in-flight batches returned to the dispatch
	// queue after their owner died (or sat in a batch past DeadAfter).
	RequeuedBatches int64 `json:"requeued_batches"`
	// CheckpointResumes counts coordinator restarts that reloaded a
	// verified checkpoint instead of starting over.
	CheckpointResumes int64 `json:"checkpoint_resumes"`
	// CheckpointsWritten counts durable (fsync'd) snapshots written.
	CheckpointsWritten int64 `json:"checkpoints_written"`
	// ChaosEvents counts wire-chaos events fired by the harness
	// (fault.NetChaos), 0 outside chaos runs.
	ChaosEvents int64 `json:"chaos_events,omitempty"`
	// ChaosSeed echoes the chaos seed so the recovery sequence
	// reproduces from the artifact alone.
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
}

// Rate returns configurations per second for the given visited count.
func (s *Stats) Rate(configs int) float64 {
	if s == nil || s.Elapsed <= 0 {
		return 0
	}
	return float64(configs) / s.Elapsed.Seconds()
}

// fold merges one input vector's counters o into the all-inputs
// aggregate s.  High-water marks — Workers, PeakFrontier, Stripes,
// MaxStripeKeys, Shards — take the maximum, and every counter, Elapsed
// included, sums; callers that measure the sweep's wall clock overwrite
// Elapsed afterwards.  MinStripeKeys is the minimum over the vectors
// that report a census (Stripes > 0), so an empty shard's 0 counts
// while the serial engine's absent census does not; s has seen such a
// vector exactly when s.Stripes > 0.  The disk-tier counters fold the
// same way (spill files' residency is a high-water mark, since each
// vector's files go before the next starts).  Recovery is run-wide and
// left to the caller.
func (s *Stats) fold(o *Stats) {
	if o == nil {
		return
	}
	if o.Stripes > 0 && (s.Stripes == 0 || o.MinStripeKeys < s.MinStripeKeys) {
		s.MinStripeKeys = o.MinStripeKeys
	}
	s.Workers = max(s.Workers, o.Workers)
	s.Generated += o.Generated
	s.DedupHits += o.DedupHits
	s.Steals += o.Steals
	s.PeakFrontier = max(s.PeakFrontier, o.PeakFrontier)
	s.KeyBytes += o.KeyBytes
	s.Elapsed += o.Elapsed
	s.Stripes = max(s.Stripes, o.Stripes)
	s.Collisions += o.Collisions
	s.MaxStripeKeys = max(s.MaxStripeKeys, o.MaxStripeKeys)
	s.HandoffBatches += o.HandoffBatches
	s.HandoffItems += o.HandoffItems
	s.RecycledBatches += o.RecycledBatches
	s.Shards = max(s.Shards, o.Shards)
	s.Batches += o.Batches
	s.RemoteItems += o.RemoteItems
	s.Recoveries += o.Recoveries
	s.Checkpoints += o.Checkpoints
	if sp := o.Spill; sp != nil {
		if s.Spill == nil {
			s.Spill = &explore.SpillStats{}
		}
		a := s.Spill
		a.Keys = max(a.Keys, sp.Keys)
		a.Bytes = max(a.Bytes, sp.Bytes)
		a.Runs = max(a.Runs, sp.Runs)
		a.Flushes += sp.Flushes
		a.Compactions += sp.Compactions
		a.Lookups += sp.Lookups
		a.LookupHits += sp.LookupHits
		a.BlockReads += sp.BlockReads
		a.BlockBytes += sp.BlockBytes
		a.FrontierSpilled += sp.FrontierSpilled
		a.FrontierLoaded += sp.FrontierLoaded
		a.Checkpoints += sp.Checkpoints
		a.Resumed = a.Resumed || sp.Resumed
		a.Retries += sp.Retries
		a.SoftFails += sp.SoftFails
	}
}

// Unsafe is the serial checker's per-configuration safety scan without
// trace bookkeeping: it records reachable decisions into dec and reports
// whether the configuration violates consistency or validity, or
// contains a stuck surviving process.  valid is the run's input-value
// set.  Exported so engine embedders (the parallel engine here, the
// distributed workers in internal/dist) share one definition of
// "unsafe"; any engine that sees it return true must defer to the
// canonical serial checker for the reported violation.
func Unsafe(c *sim.Config, opts Options, valid, dec map[int64]bool) bool {
	_, bad := scanSafety(c, opts, valid, dec)
	return bad
}

// InputVector decodes vector index bits into per-process binary inputs:
// process i gets bit i.  It is the canonical enumeration order of every
// all-inputs sweep, the distributed coordinator's included.
func InputVector(bits, n int) []int64 {
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64((bits >> i) & 1)
	}
	return inputs
}
