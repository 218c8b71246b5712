package valency

import (
	"time"

	"randsync/internal/explore"
	"randsync/internal/sim"
)

// Stats describes an engine's work for one Check.  The serial engine
// fills Workers, KeyBytes and Elapsed only; the parallel engines fill the
// rest.  Stats are performance telemetry only and intentionally excluded
// from verdict comparisons: two runs with different worker counts
// produce the same Report fields but different Stats.
type Stats struct {
	// Workers is the number of exploration workers used.
	Workers int `json:"workers"`
	// Generated counts successor configurations computed (clone+step),
	// including ones the visited set then deduplicated.
	Generated int64 `json:"generated"`
	// DedupHits counts generated successors that were already visited.
	DedupHits int64 `json:"dedup_hits"`
	// Steals counts work-stealing transfers between workers.
	Steals int64 `json:"steals,omitempty"`
	// PeakFrontier is the high-water mark of unexplored configurations.
	PeakFrontier int64 `json:"peak_frontier,omitempty"`
	// KeyBytes is the total interned visited-set key bytes retained at
	// the end of exploration — the memory the dedup structure holds, so
	// encoding regressions surface in the engine counters.
	KeyBytes int64 `json:"key_bytes"`
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration `json:"elapsed_ns"`

	// Visited-set census (explore.SetStats), zero on the serial engine,
	// whose visited set is a plain map: Stripes is the number of
	// fingerprint shards (one per worker), Collisions counts true 64-bit
	// fingerprint collisions kept apart in overflow maps, and
	// MinStripeKeys/MaxStripeKeys bound the per-shard key counts — the
	// imbalance envelope of the fingerprint partition.  The distributed
	// engine reports the same fields at shard granularity, so cluster
	// shard-imbalance reads off the same counters.
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

	// Distributed-engine counters, zero on local runs.  Shards is the
	// fingerprint-partition width, Batches the number of work batches the
	// coordinator dispatched and acked, RemoteItems the cross-shard
	// frontier configurations shipped over the wire, Recoveries the
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
	// queue after their owner died.
	RequeuedBatches int64 `json:"requeued_batches"`
	// Redispatches counts speculative re-assignments of batches whose
	// owner went slow (missed heartbeats) or whose ack timed out —
	// idempotent reprocessing makes the possible duplicate safe.
	Redispatches int64 `json:"speculative_redispatches"`
	// CheckpointResumes counts coordinator restarts that reloaded a
	// verified checkpoint instead of starting over.
	CheckpointResumes int64 `json:"checkpoint_resumes"`
	// CheckpointsWritten counts durable (fsync'd) snapshots written.
	CheckpointsWritten int64 `json:"checkpoints_written"`
	// MemPauses counts memory-backpressure episodes: stretches during
	// which the watchdog clamped batch dispatch because the retained
	// key bytes neared the memory budget.
	MemPauses int64 `json:"mem_pauses,omitempty"`
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

// Unsafe mirrors the serial checker's per-configuration safety scan
// (violationAt) without trace bookkeeping: it records reachable decisions
// into dec and reports whether the configuration violates consistency or
// validity, or contains a stuck surviving process.  valid is the run's
// input-value set.  Exported so engine embedders (the parallel engine
// here, the distributed workers in internal/dist) share one definition
// of "unsafe"; any engine that sees it return true must defer to the
// canonical serial checker for the reported violation.
func Unsafe(c *sim.Config, opts Options, valid, dec map[int64]bool) bool {
	firstPid, firstVal := -1, int64(0)
	for pid, d := range c.Decided {
		if !d {
			if c.Pending(pid).Kind == sim.ActHalt && !opts.Crashed(c, pid) {
				return true // a survivor halted without deciding: stuck
			}
			continue
		}
		v := c.Decision[pid]
		dec[v] = true
		if !valid[v] {
			return true // validity
		}
		if firstPid == -1 {
			firstPid, firstVal = pid, v
		} else if v != firstVal {
			return true // consistency
		}
	}
	return false
}

// checkAllInputsParallel fans CheckAllInputs out across the pool.  With
// enough input vectors to keep every worker busy it parallelizes at the
// vector level (each vector explored by the canonical serial engine —
// the per-vector reports are then byte-identical to serial ones); with
// few vectors it runs them in sequence, each parallelized internally.
// Either way the aggregate is assembled in canonical vector order, so
// the returned report matches the serial loop's.
func checkAllInputsParallel(proto sim.Protocol, n int, opts Options) *Report {
	workers := opts.workers()
	vecs := 1 << n
	reports := make([]*Report, vecs)

	var poolStats explore.Stats
	if vecs >= 2*workers {
		inner := opts
		inner.Workers = 0
		idx := make([]int, vecs)
		for i := range idx {
			idx[i] = i
		}
		poolStats = explore.Run(workers, idx, func(i int, _ *explore.Ctx[int]) {
			reports[i] = checkSerial(proto, inputVector(i, n), inner)
		})
	} else {
		for i := range reports {
			reports[i] = checkSharded(proto, inputVector(i, n), opts)
		}
	}

	agg := &Report{Complete: true, Decisions: make(map[int64]bool)}
	aggStats := &Stats{
		Workers:      workers,
		Steals:       poolStats.Steals,
		PeakFrontier: poolStats.PeakPending,
		Elapsed:      poolStats.Elapsed,
	}
	for _, rep := range reports {
		agg.Configs += rep.Configs
		agg.Livelock = agg.Livelock || rep.Livelock
		agg.Complete = agg.Complete && rep.Complete
		for v := range rep.Decisions {
			agg.Decisions[v] = true
		}
		if rep.Stats != nil {
			aggStats.Generated += rep.Stats.Generated
			aggStats.DedupHits += rep.Stats.DedupHits
			aggStats.Steals += rep.Stats.Steals
			aggStats.PeakFrontier += rep.Stats.PeakFrontier
			aggStats.KeyBytes += rep.Stats.KeyBytes
			aggStats.Collisions += rep.Stats.Collisions
			aggStats.HandoffBatches += rep.Stats.HandoffBatches
			aggStats.HandoffItems += rep.Stats.HandoffItems
			aggStats.RecycledBatches += rep.Stats.RecycledBatches
			if rep.Stats.Stripes > aggStats.Stripes {
				aggStats.Stripes = rep.Stats.Stripes
			}
			if aggStats.MinStripeKeys == 0 || (rep.Stats.MinStripeKeys > 0 && rep.Stats.MinStripeKeys < aggStats.MinStripeKeys) {
				aggStats.MinStripeKeys = rep.Stats.MinStripeKeys
			}
			if rep.Stats.MaxStripeKeys > aggStats.MaxStripeKeys {
				aggStats.MaxStripeKeys = rep.Stats.MaxStripeKeys
			}
			if poolStats.Elapsed == 0 {
				// Vector-level fan-out already measured wall-clock in the
				// pool; only the sequential branch sums per-vector time.
				aggStats.Elapsed += rep.Stats.Elapsed
			}
		}
		if rep.Violation != nil {
			rep.Configs = agg.Configs
			return rep
		}
	}
	agg.Stats = aggStats
	return agg
}

// inputVector decodes vector index bits into per-process binary inputs —
// the canonical enumeration order shared by the serial and parallel
// CheckAllInputs loops.
func inputVector(bits, n int) []int64 {
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64((bits >> i) & 1)
	}
	return inputs
}
