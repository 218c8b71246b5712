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
	buf       []byte        // visit-key scratch, reused across successors
	free      []*sim.Config // recycled frontier configurations (arena)

	_ [64]byte // avoid false sharing between adjacent workers
}

// sworkFreeCap bounds the per-worker configuration arena; beyond it,
// retired configurations are dropped to the collector instead of hoarded.
const sworkFreeCap = 256

func (w *swork) take() *sim.Config {
	if n := len(w.free); n > 0 {
		c := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return c
	}
	return nil
}

// checkSharded explores the reachable configuration space of proto on
// the shard-owned engine (explore.RunSharded): each worker owns a
// fingerprint shard of the visited set, successors for foreign shards
// travel in batched hand-offs, and frontier configuration storage
// recycles through per-worker arenas (sim.Config.CloneInto).
//
// Determinism: a complete run admits exactly the reachable canonical key
// set — each key once, by its shard owner — so Configs, Decisions and
// the edge graph feeding Livelock detection are independent of worker
// count, batch boundaries and steal timing.  If any worker sees a
// violation the parallel result is discarded and the serial checker
// re-runs from scratch: its depth-first order is the canonical trace
// order (lexicographic in scheduler choices), so the reported first
// violation — kind, detail and trace — is identical to a serial run's,
// regardless of worker count or timing.  Violating runs stop early
// under both engines, so the re-run is cheap.
func checkSharded(proto sim.Protocol, inputs []int64, opts Options) *Report {
	workers := opts.workers()
	budget := int64(opts.Budget())

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

	// The memory watchdog accounts both retained costs: interned
	// visited-set key bytes (OnBytes) and the frontier's pending
	// configuration clones, added at materialization and released when
	// the engine retires the payload through Recycle.
	var memBytes atomic.Int64
	budgeted := opts.MemBudget > 0
	sopts := explore.ShardedOptions[*sim.Config]{
		MaxItems: budget,
		Recycle: func(worker int, c *sim.Config) {
			if budgeted {
				memBytes.Add(-c.MemBytes())
			}
			if w := &ws[worker]; len(w.free) < sworkFreeCap {
				w.free = append(w.free, c)
			}
		},
	}
	if budgeted {
		sopts.OnBytes = func(d int64) { memBytes.Add(d) }
		sopts.OverBudget = func() bool { return memBytes.Load() >= opts.MemBudget }
	}

	initial := sim.NewConfig(proto, inputs)
	ws[0].buf = opts.AppendVisitKey(&ws[0].keyer, initial, ws[0].buf[:0])
	roots := []explore.ShardSeed[*sim.Config]{
		{FP: sim.FingerprintBytes(ws[0].buf), Key: ws[0].buf, Val: initial},
	}

	res := explore.RunSharded(workers, sopts, roots,
		func(ctx *explore.ShardCtx[*sim.Config], id int64, c *sim.Config) {
			w := &ws[ctx.Worker()]
			if Unsafe(c, opts, valid, w.decisions) {
				violated.Store(true)
				ctx.Stop()
				return
			}
			for pid := 0; pid < c.N(); pid++ {
				if opts.Crashed(c, pid) {
					continue // crash-stop: never scheduled again
				}
				a := c.Pending(pid)
				if a.Kind == sim.ActHalt {
					continue
				}
				outcomes := int64(1)
				if a.Kind == sim.ActFlip {
					outcomes = a.Sides
				}
				for o := int64(0); o < outcomes; o++ {
					// Copy-on-write successor generation, as in the serial
					// engine: step in place, encode, emit, undo.  Emit calls
					// the materializer synchronously (while c is stepped) and
					// only when the successor actually travels: a self-shard
					// duplicate — the common case — costs one private map
					// probe and no clone.
					var u sim.StepUndo
					if _, err := c.StepInto(pid, o, &u); err != nil {
						// Serial reports this as a Stuck violation; defer to it.
						violated.Store(true)
						ctx.Stop()
						return
					}
					w.generated++
					w.buf = opts.AppendVisitKey(&w.keyer, c, w.buf[:0])
					ctx.Emit(sim.FingerprintBytes(w.buf), w.buf, id,
						func() *sim.Config {
							clone := c.CloneInto(w.take())
							if budgeted {
								memBytes.Add(clone.MemBytes())
							}
							return clone
						})
					c.UndoStep(&u)
				}
			}
		})

	if pe, ok := res.Err.(*explore.PanicError); ok {
		// The RAM-tier entry points predate error returns: a protocol
		// panic here used to kill the process outright.  Keep that
		// contract for direct callers — the spill tier returns the
		// recovered panic as an error instead, and the service above it
		// classifies that as a permanent job failure.
		panic(pe)
	}

	if violated.Load() {
		return checkSerial(proto, inputs, opts)
	}

	rep := &Report{
		Inputs:    append([]int64(nil), inputs...),
		Decisions: make(map[int64]bool),
		Complete:  !res.Stats.Incomplete,
		Configs:   int(res.Stats.Admitted),
	}
	var generated int64
	for i := range ws {
		generated += ws[i].generated
		for v := range ws[i].decisions {
			rep.Decisions[v] = true
		}
	}
	rep.Livelock = explore.HasCycle(int(res.Stats.Admitted), res.Edges)
	st := &res.Stats
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
	return rep
}
