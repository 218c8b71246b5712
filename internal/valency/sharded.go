package valency

import (
	"sync/atomic"

	"randsync/internal/explore"
	"randsync/internal/sim"
)

// swork is the per-worker private state of a shard-owned exploration;
// nothing here is shared, so the expand callback touches no locks beyond
// the engine's batched hand-off path.
type swork struct {
	decisions map[int64]bool
	generated int64
	keyer     sim.Keyer
	buf       []byte       // visit-key scratch, reused across successors
	free      []*shardItem // recycled frontier items (arena)

	_ [64]byte // avoid false sharing between adjacent workers
}

// sworkFreeCap bounds the per-worker item arena; beyond it, retired
// items are dropped to the collector instead of hoarded.
const sworkFreeCap = 256

// take returns a recycled frontier item, or a fresh one.
func (w *swork) take() *shardItem {
	if n := len(w.free); n > 0 {
		it := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return it
	}
	return new(shardItem)
}

// shardItem is one frontier configuration of the sharded engine: the
// live configuration plus, on the disk tier, the scheduler-choice
// sequence that reaches it from the initial configuration.  Only the
// schedule goes to disk; the RAM tier leaves it empty.  The engine holds
// items by pointer, so a frontier slot is one word on either tier, and
// a recycled item keeps both its configuration's and its schedule's
// storage.
type shardItem struct {
	sim.Config
	sched []byte
}

// checkSharded is the one front end over the shard-owned engine
// (explore.RunSharded) for both tiers: each worker owns a fingerprint
// shard of the visited set, successors for foreign shards travel in
// batched hand-offs, and frontier configuration storage recycles
// through per-worker arenas (sim.Config.CloneInto).  With disk nil it
// is the in-RAM engine behind Check; with a spill tier (see spill.go)
// it is the disk-tiered engine behind CheckSpill, and only there does
// it attach the tier, track each item's schedule and report the tier's
// telemetry.  A worker panic comes back as an *explore.PanicError.
//
// Determinism: a complete run admits exactly the reachable canonical key
// set — each key once, by its shard owner — so Configs, Decisions and
// the edge graph feeding Livelock detection are independent of worker
// count, batch boundaries, steal timing and (on disk) spill timing and
// kill points.  If any worker sees a violation the parallel result is
// discarded and the serial checker re-runs from scratch: its
// depth-first order is the canonical trace order (lexicographic in
// scheduler choices), so the reported first violation — kind, detail
// and trace — is identical to a serial run's, regardless of worker
// count or timing.  Violating runs stop early under both engines, so
// the re-run is cheap.
func checkSharded(proto sim.Protocol, inputs []int64, opts Options, disk *spillTier) (*Report, error) {
	workers := opts.workers()

	valid := make(map[int64]bool, len(inputs))
	for _, in := range inputs {
		valid[in] = true
	}
	ws := make([]swork, workers)
	for i := range ws {
		ws[i].decisions = make(map[int64]bool)
		ws[i].keyer.Symmetry = opts.SymmetryOn()
	}
	var violated atomic.Bool

	sopts := explore.ShardedOptions[*shardItem]{
		MaxItems: int64(opts.Budget()),
		Recycle: func(worker int, it *shardItem) {
			if w := &ws[worker]; len(w.free) < sworkFreeCap {
				w.free = append(w.free, it)
			}
		},
	}
	if disk != nil {
		disk.ws = ws
		sopts.Spill = &disk.cfg
	}

	initial := &shardItem{Config: *sim.NewConfig(proto, inputs)}
	ws[0].buf = opts.AppendVisitKey(&ws[0].keyer, &initial.Config, ws[0].buf[:0])
	roots := []explore.ShardSeed[*shardItem]{
		{FP: sim.FingerprintBytes(ws[0].buf), Key: ws[0].buf, Val: initial},
	}

	res := explore.RunSharded(workers, sopts, roots,
		func(ctx *explore.ShardCtx[*shardItem], id int64, it *shardItem) {
			w := &ws[ctx.Worker()]
			c := &it.Config
			if Unsafe(c, opts, valid, w.decisions) {
				violated.Store(true)
				ctx.Stop()
				return
			}
			// Copy-on-write successor generation, as in the serial engine:
			// Successors steps c in place, and Emit calls the materializer
			// synchronously (while c is stepped) and only when the
			// successor actually travels: a self-shard duplicate — the
			// common case — costs one private key-table probe and no clone.
			_, err := opts.Successors(c, func(pid int, out int64, _ sim.Event) bool {
				w.generated++
				w.buf = opts.AppendVisitKey(&w.keyer, c, w.buf[:0])
				ctx.Emit(sim.FingerprintBytes(w.buf), w.buf, id, func() *shardItem {
					next := w.take()
					c.CloneInto(&next.Config)
					if disk != nil {
						next.sched = sim.AppendScheduleStep(append(next.sched[:0], it.sched...), pid, out)
					}
					return next
				})
				return false
			})
			if err != nil {
				// Serial reports this as a Stuck violation; defer to it.
				violated.Store(true)
				ctx.Stop()
			}
		})
	st := &res.Stats

	var rep *Report
	if violated.Load() {
		rep = checkSerial(proto, inputs, opts)
		res.Err = nil // the violation is the verdict
	} else {
		rep = &Report{
			Inputs:    append([]int64(nil), inputs...),
			Decisions: make(map[int64]bool),
			Complete:  !st.Incomplete,
			Configs:   int(st.Admitted),
			Livelock:  explore.HasCycle(int(st.Admitted), res.Edges),
		}
		var generated int64
		for i := range ws {
			generated += ws[i].generated
			for v := range ws[i].decisions {
				rep.Decisions[v] = true
			}
		}
		rep.Stats = &Stats{
			Workers:         workers,
			Generated:       generated,
			DedupHits:       st.DedupHits,
			Steals:          st.Steals,
			PeakFrontier:    st.PeakPending,
			KeyBytes:        st.Census.Interned,
			Elapsed:         st.Elapsed,
			Stripes:         st.Census.Stripes,
			Collisions:      st.Census.Collisions,
			MinStripeKeys:   st.Census.MinStripeKeys,
			MaxStripeKeys:   st.Census.MaxStripeKeys,
			HandoffBatches:  st.HandoffBatches,
			HandoffItems:    st.HandoffItems,
			RecycledBatches: st.RecycledBatches,
		}
	}
	if disk != nil {
		sp := st.Spill
		rep.Stats.Checkpoints, rep.Stats.Spill = sp.Checkpoints, &sp
	}
	return rep, res.Err
}
