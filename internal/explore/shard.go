package explore

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"randsync/internal/frame"
)

// This file is the shard-owned exploration engine: the in-process
// counterpart of the fingerprint-shard ownership the distributed
// coordinator (internal/dist) proves out over the wire.
//
// A shared visited set under a generic work-stealing pool funnels every
// membership probe of every worker through shared locks, every frontier
// hand-off through per-item deque locking, and every emission through a
// contended pending/peak atomic pair — the lock-striped set and pool
// this engine replaced (both since deleted) collapsed exactly that way
// as workers rose.
// The sharded engine keeps shared structures off the hot path entirely:
//
//   - Each worker OWNS a fixed fingerprint shard of the visited set
//     (owner = fp mod workers).  Membership, interning, dense-id
//     assignment and edge logging for owned fingerprints are operations
//     on worker-private state — a pointer-free key table over an
//     append-only key arena (keytable.go) and a chunked edge log — with
//     no locks and no cross-core cache traffic.
//   - A successor whose fingerprint belongs to a foreign shard is
//     buffered into a per-destination batch; a full batch is handed to
//     the owner in one mutex acquisition, so cross-shard traffic costs
//     one lock per ShardBatchSize items instead of one per item.
//   - The frontier is split per worker into a lock-free private stack
//     (depth-first locality) and a mutex-guarded public slice that
//     thieves raid in whole-batch steals (half the public slice per
//     lock), so steals amortize the same way hand-offs do.
//   - Batches and their key storage recycle through per-worker arenas,
//     and the caller can recycle item payloads via Recycle, so a
//     steady-state exploration allocates almost nothing per
//     configuration.
//
// Termination is detected without a contended counter: each worker
// keeps single-writer created/consumed unit counters (a unit is an
// admitted-but-unexpanded task or an in-flight hand-off item), and an
// idle worker declares the run finished only when a scan that reads
// every consumed counter BEFORE every created counter finds the sums
// equal.  Because a unit's created-increment happens before the unit
// becomes visible to any consumer, consumed-reads-first makes the
// scanned created sum an upper bound taken no earlier than the consumed
// sum — equality therefore proves every created unit was consumed, a
// stable (quiescent) state, never a transient coincidence.
//
// Verdict equivalence with the serial engine does not depend on any of
// this: a complete run admits exactly the reachable canonical key set
// (each key admitted once, by its owner), and every generated edge is
// logged by the owner of its destination, so Configs, Decisions and the
// cycle-detection graph are identical regardless of worker count, batch
// boundaries, or steal timing.  See valency.checkSharded for how
// violations defer to the canonical serial re-run.

// ShardBatchSize is the default cross-shard hand-off batch size.
const ShardBatchSize = 64

// shardExportMin is the private-frontier depth beyond which a worker
// republishes the oldest half of its stack for thieves.
const shardExportMin = 32

// peakSampleMask: sample the outstanding-unit estimate every 32 tasks.
const peakSampleMask = 31

// ShardSeed is a root item for RunSharded: a payload with its canonical
// key and fingerprint.
type ShardSeed[T any] struct {
	FP  uint64
	Key []byte
	Val T
}

// ShardedOptions tune a sharded run.
type ShardedOptions[T any] struct {
	// MaxItems caps admissions: the admission assigned a dense id at or
	// beyond the cap marks the run Incomplete and stops it.  Workers check
	// the stop flag before each admission, so besides the cap-crossing one
	// at most one admission per other worker lands after the cap: a
	// stopped run admits at most MaxItems + workers keys.  <= 0 means
	// unlimited.
	MaxItems int64
	// OverBudget, when non-nil, is polled after each fresh admission;
	// returning true marks the run Incomplete and stops it (the hook
	// valency's MemBudget installs).
	OverBudget func() bool
	// OnBytes, when non-nil, observes every growth of the interned key
	// bytes, with the delta; it must be safe for concurrent calls.
	OnBytes func(delta int64)
	// Recycle, when non-nil, is called exactly once per materialized
	// payload the engine is done with: a deduplicated hand-off's payload
	// (called by the shard owner) or an expanded task's payload (called
	// by the expanding worker, after the expand callback returns).
	// worker is the calling worker's index, so per-worker payload arenas
	// need no locking.
	Recycle func(worker int, val T)
	// BatchSize overrides ShardBatchSize; <= 0 selects the default.
	BatchSize int
	// Spill, when non-nil, enables the disk tier (spill.go): visited-set
	// shards evict to sorted run files beyond Spill.HotBytes, deep
	// frontiers spill to segment files, and — with CheckpointEvery — the
	// run writes durable manifests a later run can resume from.
	Spill *SpillConfig[T]
}

// SetStats is an end-of-run census of the visited-set shards: how many
// keys each retains and how evenly the fingerprint hash spreads them.
// Exploration engines surface it through their Stats so shard imbalance
// (in-process and distributed) is diagnosable from the counter block
// instead of a profiler.
type SetStats struct {
	// Stripes is the number of shards.
	Stripes int
	// Keys is the total distinct keys retained.
	Keys int64
	// Collisions counts keys admitted while a distinct key with the same
	// fingerprint sat in their shard's key table — true 64-bit
	// fingerprint collisions, expected to be ≈ 0.
	Collisions int64
	// Interned is the total interned key bytes retained.
	Interned int64
	// MinStripeKeys and MaxStripeKeys are the smallest and largest
	// per-shard key counts — the imbalance envelope of the fingerprint
	// partition.
	MinStripeKeys, MaxStripeKeys int64
}

// ShardedStats are the counters of one sharded run.
type ShardedStats struct {
	// Workers is the number of shard-owning workers.
	Workers int
	// Processed counts admitted tasks handed to the expand callback.
	Processed int64
	// Admitted counts distinct keys admitted (== the visited-set size).
	Admitted int64
	// DedupHits counts emitted successors whose key was already admitted.
	DedupHits int64
	// HandoffBatches counts cross-shard batches delivered.
	HandoffBatches int64
	// HandoffItems counts items shipped inside those batches.
	HandoffItems int64
	// RecycledBatches counts batch buffers reused from an arena instead
	// of allocated fresh.
	RecycledBatches int64
	// Steals counts whole-batch frontier steals between workers.
	Steals int64
	// PeakPending is the high-water mark of outstanding work units
	// (admitted-but-unexpanded tasks plus in-flight hand-off items),
	// sampled every few tasks rather than tracked per emission.
	PeakPending int64
	// Stopped reports an aborted run (Ctx.Stop or budget).
	Stopped bool
	// Incomplete reports a budget-truncated run.
	Incomplete bool
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Census is the end-of-run shard census (Stripes == Workers).
	Census SetStats
	// Spill is the disk-tier telemetry; all zero when tiering is off.
	Spill SpillStats
}

// ShardedResult is a run's stats plus its edge log for cycle detection:
// every worker's chunks side by side (after a resumed run's restored
// edges), never merged into one slice.
type ShardedResult struct {
	Stats ShardedStats
	Edges EdgeLog
	// Err is set when the run aborted on an unrecoverable disk fault,
	// refused to resume from an unusable manifest, or recovered a panic
	// out of a worker (*PanicError); the verdict is then Incomplete — a
	// fault or a panicking protocol can stop a run but never falsify one.
	Err error
}

// PanicError reports a panic recovered from an exploration worker
// goroutine.  A protocol implementation that panics mid-expansion would
// otherwise kill the whole process — unacceptable once the engine runs
// inside a long-lived service — so each worker runs under recover, the
// first panic aborts the run (the other workers drain via the stop
// flag), and the value plus stack travel to the caller in Result.Err.
type PanicError struct {
	// Value is the panic value, rendered with %v.
	Value string
	// Stack is the panicking goroutine's stack at recovery time.
	Stack string
}

func (e *PanicError) Error() string { return "explore: worker panic: " + e.Value }

// ShardCtx is the per-worker handle passed to the expand callback.
type ShardCtx[T any] struct {
	e  *sharded[T]
	id int
}

// Worker returns the worker index in [0, workers).
func (c *ShardCtx[T]) Worker() int { return c.id }

// Stop aborts the run: workers exit without draining frontiers or
// inboxes.
func (c *ShardCtx[T]) Stop() { c.e.stopped.Store(true) }

// Emit routes the successor encoded by (fp, key) to its owning shard.
// key may point into a caller-owned scratch buffer; the engine copies
// what it retains before returning.  make materializes the payload and
// is invoked at most once, synchronously, and only when the successor
// must actually travel: immediately for a fresh self-owned key (the
// payload becomes a frontier task) or at batch-append time for a
// foreign-owned key (the owner decides freshness when the batch
// arrives).  A self-owned duplicate costs one table probe and no payload.
//
// parent is the dense id of the configuration being expanded; the edge
// parent→successor is logged by the successor's owner whether or not
// the successor is fresh (duplicate edges are exactly the back edges
// cycle detection needs).  Emit is valid only during the expand
// callback that received this Ctx.
func (c *ShardCtx[T]) Emit(fp uint64, key []byte, parent int64, make func() T) {
	e := c.e
	if e.stopped.Load() {
		return
	}
	owner := int(fp % uint64(len(e.ws)))
	if owner == c.id {
		id, fresh := e.admit(c.id, fp, key, parent)
		if fresh && !e.stopped.Load() {
			// Count the unit before it becomes poppable (it cannot leave
			// this goroutine before pushLocal publishes it, but thieves
			// may take it immediately after).
			e.ws[c.id].created.Add(1)
			e.pushLocal(c.id, shardTask[T]{val: make(), id: id})
		}
		return
	}
	w := &e.ws[c.id]
	b := w.out[owner]
	if b == nil {
		b = w.getBatch()
		w.out[owner] = b
	}
	w.created.Add(1) // before the item can become visible via deliver
	b.add(fp, key, parent, make())
	if len(b.items) >= e.batchSize {
		e.deliver(c.id, owner, b)
		w.out[owner] = nil
	}
}

// shardTask is an admitted frontier item: the payload plus its dense id.
type shardTask[T any] struct {
	val T
	id  int64
}

// shardHandoff is one cross-shard item; its key bytes live in the owning
// batch's arena.
type shardHandoff[T any] struct {
	fp     uint64
	parent int64
	val    T
	off    int32
	ln     int32
}

// shardBatch carries hand-off items plus the arena backing their keys.
// Batches recycle through per-worker free lists; reset empties both
// slices while keeping their storage.
type shardBatch[T any] struct {
	items []shardHandoff[T]
	keys  []byte
}

func (b *shardBatch[T]) reset() {
	var zero shardHandoff[T]
	for i := range b.items {
		b.items[i] = zero // drop payload references for the collector
	}
	b.items = b.items[:0]
	b.keys = b.keys[:0]
}

func (b *shardBatch[T]) add(fp uint64, key []byte, parent int64, val T) {
	off := len(b.keys)
	b.keys = append(b.keys, key...)
	b.items = append(b.items, shardHandoff[T]{
		fp: fp, parent: parent, val: val, off: int32(off), ln: int32(len(key)),
	})
}

func (b *shardBatch[T]) key(i int) []byte {
	h := &b.items[i]
	return b.keys[h.off : h.off+h.ln]
}

// shardWorker is one worker's state.  The keys/bytes/edges/priv/out
// fields are owner-private (touched only by the owning goroutine); the
// mutex guards only the inbox and the public frontier; created/consumed
// are single-writer unit counters read by idle scanners.
type shardWorker[T any] struct {
	mu     sync.Mutex
	inbox  []*shardBatch[T]
	pub    []shardTask[T]
	inboxN atomic.Int32
	pubN   atomic.Int32

	created  atomic.Int64 // units this worker created (written only by it)
	consumed atomic.Int64 // units this worker consumed (written only by it)

	keys  keyTable
	bytes int64 // interned key bytes this shard retains
	edges EdgeLog

	// With a disk tier: whether some of this shard's keys live only in
	// run files — it evicted, or it resumed from a manifest.
	cold bool

	priv  []shardTask[T]
	out   []*shardBatch[T] // per-destination partial batches
	freeB []*shardBatch[T] // batch arena

	dedup      int64
	processed  int64
	delivered  int64 // batches this worker delivered
	delivItems int64
	recycledB  int64
	steals     int64

	_ [64]byte // avoid false sharing between adjacent workers
}

func (w *shardWorker[T]) getBatch() *shardBatch[T] {
	if n := len(w.freeB); n > 0 {
		b := w.freeB[n-1]
		w.freeB[n-1] = nil
		w.freeB = w.freeB[:n-1]
		w.recycledB++
		return b
	}
	return &shardBatch[T]{}
}

func (w *shardWorker[T]) putBatch(b *shardBatch[T]) {
	b.reset()
	w.freeB = append(w.freeB, b)
}

// sharded is the shared state of one RunSharded.
type sharded[T any] struct {
	ws        []shardWorker[T]
	opts      ShardedOptions[T]
	batchSize int
	expand    func(ctx *ShardCtx[T], id int64, val T)

	next       atomic.Int64 // dense id allocator
	peak       atomic.Int64 // sampled outstanding-unit high-water mark
	stopped    atomic.Bool
	finished   atomic.Bool // quiescence detected; all workers exit
	incomplete atomic.Bool

	panicMu  sync.Mutex
	panicked *PanicError // first recovered worker panic

	sp *spillRT[T] // disk tier runtime; nil when Spill is off
}

// admit resolves (fp, key) against worker w's shard: it returns the
// key's dense id and whether this call admitted it, interning the key
// and logging the parent edge either way.  Only w's owning goroutine
// (or the single-threaded seeding phase) may call it.
func (e *sharded[T]) admit(w int, fp uint64, key []byte, parent int64) (id int64, fresh bool) {
	sw := &e.ws[w]
	id, found, probe := sw.keys.find(fp, key)
	if !found && sw.cold {
		// A RAM miss is only provisional in a cold shard: the key may live
		// in a run file.  A warm shard's RAM holds every key it admitted
		// (a checkpoint copies keys to disk without dropping them), so its
		// miss is provably absent.  A tier that cannot answer
		// (unrecoverable I/O fault) aborts admission entirely — treating
		// "unknown" as "fresh" would re-admit a visited key under a
		// second dense id and corrupt the census.
		did, onDisk, err := e.tierLookup(w, fp, key)
		if err != nil {
			return 0, false
		}
		found, id = onDisk, did
	}
	if !found {
		id = e.next.Add(1) - 1
		sw.keys.insert(probe, fp, key, id) // the arena holds the only copy
		sw.bytes += int64(len(key))
		fresh = true
		if e.opts.OnBytes != nil {
			e.opts.OnBytes(int64(len(key)))
		}
	}
	if parent >= 0 {
		sw.edges.add(Edge{From: parent, To: id})
	}
	if !fresh {
		sw.dedup++
		return id, false
	}
	if (e.opts.MaxItems > 0 && id >= e.opts.MaxItems) ||
		(e.opts.OverBudget != nil && e.opts.OverBudget()) {
		e.incomplete.Store(true)
		e.stopped.Store(true)
	}
	if e.sp != nil {
		e.noteAdmission()
		e.maybeEvict(w)
	}
	return id, true
}

// pushLocal appends a task to w's private stack, republishing the oldest
// half for thieves when the stack runs deep and the public slot is empty.
func (e *sharded[T]) pushLocal(w int, t shardTask[T]) {
	sw := &e.ws[w]
	sw.priv = append(sw.priv, t)
	if len(sw.priv) >= shardExportMin && sw.pubN.Load() == 0 {
		half := len(sw.priv) / 2
		sw.mu.Lock()
		sw.pub = append(sw.pub, sw.priv[:half]...)
		sw.mu.Unlock()
		sw.pubN.Add(int32(half))
		rest := copy(sw.priv, sw.priv[half:])
		clearTasks(sw.priv[rest:])
		sw.priv = sw.priv[:rest]
	}
	if e.sp != nil {
		e.maybeSpillFrontier(w)
	}
}

func clearTasks[T any](ts []shardTask[T]) {
	var zero shardTask[T]
	for i := range ts {
		ts[i] = zero
	}
}

// deliver hands a full batch to its owning worker's inbox.
func (e *sharded[T]) deliver(from, to int, b *shardBatch[T]) {
	src := &e.ws[from]
	src.delivered++
	src.delivItems += int64(len(b.items))
	dst := &e.ws[to]
	dst.mu.Lock()
	dst.inbox = append(dst.inbox, b)
	dst.mu.Unlock()
	dst.inboxN.Add(1)
}

// flushPartial delivers every non-empty partial batch worker w holds —
// called when w runs out of local work, so buffered items never strand.
func (e *sharded[T]) flushPartial(w int) {
	sw := &e.ws[w]
	for dest, b := range sw.out {
		if b != nil && len(b.items) > 0 {
			e.deliver(w, dest, b)
			sw.out[dest] = nil
		}
	}
}

// drainInbox admits every item of every delivered batch into w's shard:
// fresh items become local frontier tasks (their unit stays alive until
// expansion), duplicates are recycled and their units consumed.  Once the
// run is stopped the remaining items are retired unadmitted, so a deep
// inbox cannot push admissions past the MaxItems cap.
func (e *sharded[T]) drainInbox(w int) {
	sw := &e.ws[w]
	sw.mu.Lock()
	batches := sw.inbox
	sw.inbox = nil
	sw.mu.Unlock()
	sw.inboxN.Add(int32(-len(batches)))

	var retired int64
	for _, b := range batches {
		for i := range b.items {
			h := &b.items[i]
			if !e.stopped.Load() {
				id, fresh := e.admit(w, h.fp, b.key(i), h.parent)
				if fresh && !e.stopped.Load() {
					e.pushLocal(w, shardTask[T]{val: h.val, id: id})
					continue
				}
			}
			if e.opts.Recycle != nil {
				e.opts.Recycle(w, h.val)
			}
			retired++
		}
		sw.putBatch(b)
	}
	if retired > 0 {
		sw.consumed.Add(retired)
	}
}

// pop takes w's next local task: private stack first (depth-first
// locality), then the worker's own public slice.
func (e *sharded[T]) pop(w int) (shardTask[T], bool) {
	sw := &e.ws[w]
	for {
		if n := len(sw.priv); n > 0 {
			t := sw.priv[n-1]
			var zero shardTask[T]
			sw.priv[n-1] = zero
			sw.priv = sw.priv[:n-1]
			return t, true
		}
		if sw.pubN.Load() <= 0 {
			var zero shardTask[T]
			return zero, false
		}
		sw.mu.Lock()
		taken := len(sw.pub)
		sw.priv = append(sw.priv, sw.pub...)
		clearTasks(sw.pub)
		sw.pub = sw.pub[:0]
		sw.mu.Unlock()
		sw.pubN.Add(int32(-taken))
	}
}

// steal raids victims' public frontiers, moving half the visible slice
// (at least one task) into the thief's private stack per acquisition.
func (e *sharded[T]) steal(w int) (shardTask[T], bool) {
	sw := &e.ws[w]
	workers := len(e.ws)
	for off := 1; off < workers; off++ {
		v := &e.ws[(w+off)%workers]
		if v.pubN.Load() <= 0 {
			continue
		}
		v.mu.Lock()
		n := len(v.pub)
		if n == 0 {
			v.mu.Unlock()
			continue
		}
		k := (n + 1) / 2
		sw.priv = append(sw.priv, v.pub[:k]...)
		rest := copy(v.pub, v.pub[k:])
		clearTasks(v.pub[rest:])
		v.pub = v.pub[:rest]
		v.mu.Unlock()
		v.pubN.Add(int32(-k))
		sw.steals++
		return e.pop(w)
	}
	var zero shardTask[T]
	return zero, false
}

// runTask expands one admitted task and consumes its unit.
func (e *sharded[T]) runTask(ctx *ShardCtx[T], t shardTask[T]) {
	sw := &e.ws[ctx.id]
	e.expand(ctx, t.id, t.val)
	if e.opts.Recycle != nil {
		e.opts.Recycle(ctx.id, t.val)
	}
	sw.consumed.Add(1)
	sw.processed++
	if sw.processed&peakSampleMask == 0 {
		if p := e.outstanding(); p > 0 {
			for {
				peak := e.peak.Load()
				if p <= peak || e.peak.CompareAndSwap(peak, p) {
					break
				}
			}
		}
	}
}

// outstanding estimates the live unit count (telemetry only).
func (e *sharded[T]) outstanding() int64 {
	var c, k int64
	for i := range e.ws {
		c += e.ws[i].created.Load()
		k += e.ws[i].consumed.Load()
	}
	return c - k
}

// quiescent reports whether every created unit has been consumed.  It
// reads every consumed counter BEFORE every created counter: created
// counters only grow and a unit's created-increment happens before the
// unit can be consumed, so the created sum read second is an upper
// bound on creations as of the moment the consumed reads completed —
// equality therefore proves the system was quiescent at that moment,
// and quiescence is stable (new units are only created by outstanding
// ones).
func (e *sharded[T]) quiescent() bool {
	var k int64
	for i := range e.ws {
		k += e.ws[i].consumed.Load()
	}
	var c int64
	for i := range e.ws {
		c += e.ws[i].created.Load()
	}
	return c == k
}

func (e *sharded[T]) worker(id int) {
	ctx := &ShardCtx[T]{e: e, id: id}
	sw := &e.ws[id]
	if e.sp != nil {
		defer e.workerExit()
	}
	idle := 0
	for {
		if e.stopped.Load() || e.finished.Load() {
			return
		}
		if e.sp != nil {
			e.pollInterrupt()
			if e.sp.ckptWant.Load() {
				e.ckptRound(id)
				continue
			}
			if e.stopped.Load() {
				return
			}
		}
		if sw.inboxN.Load() > 0 {
			e.drainInbox(id)
		}
		t, ok := e.pop(id)
		if !ok {
			e.flushPartial(id)
			t, ok = e.steal(id)
		}
		if !ok && e.sp != nil && e.reloadFrontier(id) {
			t, ok = e.pop(id)
		}
		if !ok {
			if e.quiescent() {
				e.finished.Store(true)
				return
			}
			// Work exists but is buffered elsewhere (another worker's
			// partial batch or a subtree being expanded); back off briefly.
			// The sleep threshold is low because on saturated (or single-)
			// core boxes spinning idlers steal scheduler slices from the
			// workers holding the actual frontier.
			idle++
			if idle > 4 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		e.runTask(ctx, t)
	}
}

// RunSharded explores everything reachable from roots with the given
// number of shard-owning workers, handing each admitted item exactly
// once to expand (which emits successors through the Ctx).  Duplicate
// roots dedup like any other emission.  workers < 1 selects
// runtime.GOMAXPROCS(0).
func RunSharded[T any](workers int, opts ShardedOptions[T], roots []ShardSeed[T],
	expand func(ctx *ShardCtx[T], id int64, val T)) ShardedResult {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	e := &sharded[T]{
		ws:        make([]shardWorker[T], workers),
		opts:      opts,
		batchSize: opts.BatchSize,
		expand:    expand,
	}
	if e.batchSize <= 0 {
		e.batchSize = ShardBatchSize
	}
	for i := range e.ws {
		e.ws[i].out = make([]*shardBatch[T], workers)
	}
	if opts.Spill != nil {
		sp := &spillRT[T]{cfg: *opts.Spill, fs: frame.OrOS(opts.Spill.FS)}
		sp.bar.cond = sync.NewCond(&sp.bar.mu)
		sp.bar.active = workers
		sp.hotShard = 1 << 62
		if sp.cfg.HotBytes > 0 {
			sp.hotShard = sp.cfg.HotBytes / int64(workers)
			if sp.hotShard < 1 {
				sp.hotShard = 1
			}
		}
		sp.tier = newSpillTier(sp.fs, sp.cfg.Dir, workers, sp.cfg.CheckpointEvery > 0)
		sp.manifest = frame.Record{
			FS: sp.fs, Path: filepath.Join(sp.cfg.Dir, ManifestName), Type: frameManifest,
			Version: spillVersion, Job: frame.Fingerprint(sp.cfg.Header),
			Name: "explore: spill manifest", Retries: &sp.tier.retries,
		}
		sp.qs = make([]*spillQueue, workers)
		for i := range sp.qs {
			sp.qs[i] = newSpillQueue(sp.fs, sp.cfg.Dir, i, &sp.tier.retries)
		}
		e.sp = sp
		if err := frame.Retry(&sp.tier.retries, func() error { return sp.fs.MkdirAll(sp.cfg.Dir) }); err != nil {
			return ShardedResult{
				Err:   fmt.Errorf("explore: create spill dir: %w", err),
				Stats: ShardedStats{Workers: workers, Stopped: true, Incomplete: true, Elapsed: time.Since(start)},
			}
		}
		if sp.cfg.Resume {
			if _, err := e.tryResume(); err != nil {
				sp.tier.close()
				return ShardedResult{
					Err:   err,
					Stats: ShardedStats{Workers: workers, Stopped: true, Incomplete: true, Elapsed: time.Since(start)},
				}
			}
		}
	}
	// Seed single-threaded: admission needs no locks before workers start.
	// On a resumed run the roots dedup against the disk tier.
	var seeded int64
	for _, r := range roots {
		owner := int(r.FP % uint64(workers))
		id, fresh := e.admit(owner, r.FP, r.Key, -1)
		if fresh && !e.stopped.Load() {
			e.ws[owner].created.Add(1)
			e.ws[owner].priv = append(e.ws[owner].priv, shardTask[T]{val: r.Val, id: id})
			seeded++
		} else if !fresh && opts.Recycle != nil {
			opts.Recycle(owner, r.Val)
		}
	}
	e.peak.Store(seeded)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Expand callbacks run protocol code; a panic there must fail
			// this run, not the process.  The worker's own defers (barrier
			// census retirement) run during unwinding, so the recovery
			// cannot wedge a checkpoint round.  Engine locks are never held
			// across user code, so no lock leaks either.
			defer func() {
				if r := recover(); r != nil {
					pe := &PanicError{Value: fmt.Sprintf("%v", r), Stack: string(debug.Stack())}
					e.panicMu.Lock()
					if e.panicked == nil {
						e.panicked = pe
					}
					e.panicMu.Unlock()
					e.incomplete.Store(true)
					e.stopped.Store(true)
				}
			}()
			e.worker(id)
		}(w)
	}
	wg.Wait()

	res := ShardedResult{Err: func() error {
		// A recovered panic outranks every later Err candidate (disk
		// faults, interrupt): it names the root cause.
		if e.panicked != nil {
			return e.panicked
		}
		return nil
	}(), Stats: ShardedStats{
		Workers:     workers,
		Admitted:    e.next.Load(),
		PeakPending: e.peak.Load(),
		Stopped:     e.stopped.Load(),
		Incomplete:  e.incomplete.Load(),
		Elapsed:     time.Since(start),
		Census:      SetStats{Stripes: workers},
	}}
	st := &res.Stats
	for i := range e.ws {
		sw := &e.ws[i]
		res.Edges = append(res.Edges, sw.edges...)
		st.Processed += sw.processed
		st.DedupHits += sw.dedup
		st.HandoffBatches += sw.delivered
		st.HandoffItems += sw.delivItems
		st.RecycledBatches += sw.recycledB
		st.Steals += sw.steals
		// Without a disk tier nothing is ever persisted, so the pending
		// keys are the whole table.  With one, a checkpoint keeps what it
		// persists in RAM, so RAM and runs overlap: a shard is its runs
		// plus what it has not persisted (spillFinish adds the persisted
		// collisions).
		pending, coll := sw.keys.pending()
		n := int64(pending)
		if e.sp != nil {
			n += e.sp.tier.shardKeys(i)
		}
		st.Census.Keys += n
		st.Census.Collisions += coll
		st.Census.Interned += sw.bytes
		if i == 0 || n < st.Census.MinStripeKeys {
			st.Census.MinStripeKeys = n
		}
		if n > st.Census.MaxStripeKeys {
			st.Census.MaxStripeKeys = n
		}
	}
	if e.sp != nil {
		e.spillFinish(&res)
	}
	return res
}
