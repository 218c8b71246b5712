package explore

import (
	"encoding/binary"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"randsync/internal/frame"
)

// This file wires the disk tier (spill.go) into the shard-owned engine:
// eviction and tier lookups in admit, frontier spill/reload in the
// worker loop, and the stop-the-world checkpoint round that makes a
// killed run resumable from its last durable manifest.

// SpillConfig enables disk tiering for RunSharded.  The engine spills
// visited-set shards and frontier overflow to Dir, and — when
// CheckpointEvery is set — periodically parks the workers and writes a
// manifest from which a killed run resumes.
type SpillConfig[T any] struct {
	// Dir is the spill directory; it is created if missing.
	Dir string
	// FS is the filesystem seam (nil selects the real disk); the fault
	// soaks install fault.DiskChaos here.
	FS frame.FS
	// HotBytes is the total interned key bytes the run keeps in RAM
	// across all shards; a shard exceeding its 1/workers slice is
	// evicted to a sorted run file.  <= 0 keeps the visited set in RAM
	// (frontier spill and checkpointing still apply; a checkpoint copies
	// new keys to disk without dropping them).
	HotBytes int64
	// HotFrontier is the per-worker pending-task count beyond which the
	// oldest half of the public frontier spills to a segment file.
	// <= 0 selects 8192.
	HotFrontier int
	// CheckpointEvery is the number of admissions between checkpoint
	// manifests; <= 0 disables checkpointing (spill files are then
	// deleted as soon as they are superseded or consumed).
	CheckpointEvery int64
	// Header identifies the job: a manifest written under a different
	// header refuses to resume.  Callers should encode everything that
	// determines the exploration universe (protocol, inputs, options).
	Header []byte
	// Resume loads the manifest in Dir (if any) and continues from its
	// cut instead of starting fresh.
	Resume bool
	// KeepFiles leaves the spill directory contents in place after a
	// clean completion (for inspection); by default a completed run
	// removes its manifest and data files so a later Resume cannot
	// resurrect finished work.
	KeepFiles bool
	// Encode appends val's durable form to buf.  Everything a resumed
	// run needs to re-materialize the task must be in it — the valency
	// engine uses the compact schedule encoding.
	Encode func(val T, buf []byte) []byte
	// Decode inverts Encode.
	Decode func(p []byte) (T, error)
	// Aux, when non-nil, contributes caller state to each manifest
	// (merged decision sets, counters); RestoreAux receives it on
	// resume.  Both run while the workers are parked.
	Aux        func() []byte
	RestoreAux func(p []byte) error
	// Interrupt, when non-nil, is polled by the workers between tasks:
	// the first true drains the run to one final checkpoint round and
	// stops it with ErrInterrupted — the graceful-shutdown seam.  The
	// manifest then on disk names a consistent cut a later Resume
	// continues from.  With CheckpointEvery <= 0 there is no durable
	// cut to write, so the run just stops, honestly incomplete.
	Interrupt func() bool
}

// ErrInterrupted reports a run stopped by SpillConfig.Interrupt: the
// state is checkpointed, not lost — resume from the manifest.
var ErrInterrupted = errors.New("explore: interrupted; checkpoint written")

func (c *SpillConfig[T]) hotFrontier() int {
	if c.HotFrontier <= 0 {
		return 8192
	}
	return c.HotFrontier
}

// spillRT is the engine-side runtime of one tiered run.
type spillRT[T any] struct {
	cfg      SpillConfig[T]
	fs       frame.FS
	manifest frame.Record // the checkpoint manifest: the cut a resume starts from
	tier     *spillTier
	qs       []*spillQueue

	hotShard int64 // per-shard RAM key-byte budget

	ckptAdm  atomic.Int64 // admissions since the last checkpoint
	ckptWant atomic.Bool  // a checkpoint round is requested
	inCkpt   atomic.Bool  // coordinator is inside doCheckpoint
	ckpts    atomic.Int64
	intr     atomic.Bool // cfg.Interrupt fired: final checkpoint, then stop
	resumed  bool

	bar ckptBarrier

	failed   atomic.Bool
	failOnce sync.Once
	failErr  error

	resumeEdges   []Edge // the manifest's edge log, restored on resume
	baseProcessed int64
	baseDedup     int64
}

// ckptBarrier parks every worker between tasks so the checkpoint
// coordinator sees a single-threaded world.
type ckptBarrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	parked int
	active int
	// claimed marks that one worker is coordinating the current round.
	claimed bool
}

func (e *sharded[T]) spillEnabled() bool { return e.sp != nil }

// diskFail records the first unrecoverable disk fault and stops the run
// with the honest incomplete verdict.  It must never be reachable with a
// wrong answer instead: every caller treats a failed disk operation as
// "unknown", not as "absent" or "done".
func (e *sharded[T]) diskFail(err error) {
	sp := e.sp
	sp.failOnce.Do(func() { sp.failErr = err })
	sp.failed.Store(true)
	e.incomplete.Store(true)
	e.stopped.Store(true)
	// Unpark anyone waiting on a checkpoint round.
	sp.bar.mu.Lock()
	sp.bar.cond.Broadcast()
	sp.bar.mu.Unlock()
}

// tierLookup consults the disk tier for (fp, key) on a cold shard's
// RAM miss.  found=false with err=nil means provably absent (admission
// may proceed); err != nil means the tier cannot answer and the run is
// already stopping.
func (e *sharded[T]) tierLookup(w int, fp uint64, key []byte) (int64, bool, error) {
	if e.sp.failed.Load() {
		return 0, false, nil
	}
	id, found, err := e.sp.tier.lookup(w, fp, key)
	if err != nil {
		e.diskFail(err)
		return 0, false, err
	}
	return id, found, nil
}

// persistNew writes the keys worker w's shard admitted since it last
// persisted as one more sorted run: the key table's arena walked from
// its persist mark.  It is the visited set's one write path — eviction
// and checkpoint cuts both call it — so each key reaches disk exactly
// once.  False means an unrecoverable fault: the run is stopping.
// Owner-only (or world-parked).
func (e *sharded[T]) persistNew(w int) bool {
	sp := e.sp
	sw := &e.ws[w]
	if sp.failed.Load() {
		return false
	}
	n, collided := sw.keys.pending()
	if n == 0 {
		return true
	}
	// The entries' keys alias the arena; flush copies them into the run
	// file before the reset that follows an eviction can reuse it.
	entries := make([]spillEntry, 0, n)
	sw.keys.since(func(fp uint64, id int64, key []byte) {
		entries = append(entries, spillEntry{fp: fp, id: id, key: key})
	})
	if err := sp.tier.flush(w, entries, collided); err != nil {
		e.diskFail(err)
		return false
	}
	sw.keys.markPersisted()
	return true
}

// maybeEvict moves worker w's RAM shard to disk when it exceeds its hot
// budget: it persists what is new, then drops RAM, and the shard is cold
// from then on.  Owner-only.
func (e *sharded[T]) maybeEvict(w int) {
	sw := &e.ws[w]
	if sw.bytes < e.sp.hotShard || !e.persistNew(w) {
		return
	}
	sw.keys.reset()
	sw.bytes = 0
	sw.cold = true
}

// maybeSpillFrontier moves the oldest (coldest) half of w's private
// stack to a segment file when the worker's pending work runs deep.
// The private stack is the side that grows without bound — the public
// slice only refills when thieves have emptied it — and it is owner-
// private, so no lock is needed.  A failed spill is soft: the tasks stay
// in RAM and the run continues.
func (e *sharded[T]) maybeSpillFrontier(w int) {
	sp := e.sp
	if sp == nil || sp.failed.Load() {
		return
	}
	sw := &e.ws[w]
	hot := sp.cfg.hotFrontier()
	if len(sw.priv)+int(sw.pubN.Load()) < hot {
		return
	}
	k := len(sw.priv) / 2
	if k == 0 {
		return
	}
	tasks := append([]shardTask[T](nil), sw.priv[:k]...)
	rest := copy(sw.priv, sw.priv[k:])
	clearTasks(sw.priv[rest:])
	sw.priv = sw.priv[:rest]

	items := make([][]byte, len(tasks))
	for i, t := range tasks {
		buf := binary.AppendUvarint(nil, uint64(t.id))
		items[i] = sp.cfg.Encode(t.val, buf)
	}
	if err := sp.qs[w].spill(items, false); err != nil {
		// Soft failure: put the tasks back and keep going in RAM.
		sw.priv = append(tasks, sw.priv...)
		sp.tier.softFails.Add(1)
		return
	}
	if e.opts.Recycle != nil {
		for _, t := range tasks {
			e.opts.Recycle(w, t.val)
		}
	}
}

// reloadFrontier brings one spilled segment of w's frontier back into
// RAM; it returns true if tasks were restored.  A segment that cannot be
// read or decoded is unrecoverable: its tasks exist nowhere else.
func (e *sharded[T]) reloadFrontier(w int) bool {
	sp := e.sp
	if sp == nil || sp.failed.Load() {
		return false
	}
	items, err := sp.qs[w].loadOldest(sp.deferDelete())
	if err != nil {
		e.diskFail(err)
		return false
	}
	if items == nil {
		return false
	}
	sw := &e.ws[w]
	for _, p := range items {
		r := frame.NewReader(p)
		id := r.Uvarint("frontier item id")
		rest := r.Rest()
		if err := r.Err(); err != nil {
			e.diskFail(fmt.Errorf("explore: corrupt frontier item: %w", err))
			return false
		}
		val, err := sp.cfg.Decode(rest)
		if err != nil {
			e.diskFail(fmt.Errorf("explore: decode spilled frontier item: %w", err))
			return false
		}
		sw.priv = append(sw.priv, shardTask[T]{val: val, id: int64(id)})
	}
	return true
}

func (sp *spillRT[T]) deferDelete() bool { return sp.cfg.CheckpointEvery > 0 }

// noteAdmission ticks the checkpoint trigger after a fresh admission.
func (e *sharded[T]) noteAdmission() {
	sp := e.sp
	if sp == nil || sp.cfg.CheckpointEvery <= 0 || sp.inCkpt.Load() {
		return
	}
	if sp.ckptAdm.Add(1) >= sp.cfg.CheckpointEvery {
		sp.ckptAdm.Store(0)
		sp.ckptWant.Store(true)
	}
}

// pollInterrupt checks the caller's interrupt seam; the first true
// arranges the stop — a final checkpoint round when checkpointing is
// on, an immediate stop otherwise.  Called by every worker between
// tasks, so interrupt latency is one task, not one checkpoint period.
func (e *sharded[T]) pollInterrupt() {
	sp := e.sp
	if sp == nil || sp.cfg.Interrupt == nil || sp.intr.Load() || sp.inCkpt.Load() {
		return
	}
	if !sp.cfg.Interrupt() {
		return
	}
	sp.intr.Store(true)
	if sp.cfg.CheckpointEvery > 0 {
		sp.ckptWant.Store(true)
	} else {
		e.incomplete.Store(true)
		e.stopped.Store(true)
	}
}

// ckptRound is called at the top of each worker iteration when a
// checkpoint is requested: the first worker to claim the round
// coordinates (waits for the others to park, snapshots, resumes them);
// the rest park until the round completes.
func (e *sharded[T]) ckptRound(id int) {
	sp := e.sp
	b := &sp.bar
	b.mu.Lock()
	if !sp.ckptWant.Load() || e.stopped.Load() || e.finished.Load() {
		b.mu.Unlock()
		return
	}
	if b.claimed {
		for sp.ckptWant.Load() && b.claimed && !e.stopped.Load() && !e.finished.Load() {
			b.parked++
			if b.parked == b.active-1 {
				b.cond.Broadcast() // the coordinator may be waiting on us
			}
			b.cond.Wait()
			b.parked--
		}
		b.mu.Unlock()
		return
	}
	b.claimed = true
	for b.parked < b.active-1 && !e.stopped.Load() && !e.finished.Load() {
		b.cond.Wait()
	}
	b.mu.Unlock()
	// The world is single-threaded: every other active worker is parked
	// inside the barrier (touching only barrier fields) or has exited.
	if !e.stopped.Load() && !e.finished.Load() {
		sp.inCkpt.Store(true)
		e.doCheckpoint()
		sp.inCkpt.Store(false)
		if sp.intr.Load() {
			// The interrupt's final cut is durable (or the previous
			// manifest still stands); now stop the world for real.
			e.incomplete.Store(true)
			e.stopped.Store(true)
		}
	}
	b.mu.Lock()
	b.claimed = false
	sp.ckptWant.Store(false)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// workerExit retires a worker from the barrier's census so a checkpoint
// round never waits for a goroutine that is gone.
func (e *sharded[T]) workerExit() {
	if e.sp == nil {
		return
	}
	b := &e.sp.bar
	b.mu.Lock()
	b.active--
	b.cond.Broadcast()
	b.mu.Unlock()
}

// doCheckpoint writes one consistent cut: partial hand-offs delivered
// and drained, the keys each shard admitted since its last write
// persisted as one more run (RAM keeps them: a cut is incremental and
// evicts nothing), the whole frontier snapshotted to segments, and a
// manifest naming all of it written atomically.  Resume from the
// manifest replays the run from exactly this cut; everything the run
// does afterwards is discarded by a resume (files the manifest does not
// name are deleted), so re-exploration after a crash is idempotent.
func (e *sharded[T]) doCheckpoint() {
	sp := e.sp
	// 1. Settle in-flight hand-offs so every pending task is local.
	for w := range e.ws {
		e.flushPartial(w)
	}
	for w := range e.ws {
		if e.ws[w].inboxN.Load() > 0 {
			e.drainInbox(w)
		}
	}
	if e.stopped.Load() {
		return
	}
	// 2. The manifest's run list must cover every admitted key: the runs
	// already hold every key persisted before, so write just the rest.
	for w := range e.ws {
		if !e.persistNew(w) {
			return
		}
	}
	// 3. Snapshot the RAM frontier.  The tasks stay in RAM (the live run
	// continues from them); the snapshot segments exist only for resume
	// and are superseded at the next cut.
	for w := range e.ws {
		sp.qs[w].clearSnapshots()
	}
	var items [][]byte
	for w := range e.ws {
		sw := &e.ws[w]
		items = items[:0]
		for _, t := range sw.priv {
			buf := binary.AppendUvarint(nil, uint64(t.id))
			items = append(items, sp.cfg.Encode(t.val, buf))
		}
		for _, t := range sw.pub {
			buf := binary.AppendUvarint(nil, uint64(t.id))
			items = append(items, sp.cfg.Encode(t.val, buf))
		}
		if len(items) == 0 {
			continue
		}
		if err := sp.qs[w].spill(items, true); err != nil {
			// A checkpoint that cannot be written is skipped, not fatal:
			// the previous manifest stays valid.
			sp.tier.softFails.Add(1)
			return
		}
	}
	// 4. Write the manifest naming the cut.
	if err := sp.manifest.Write(e.appendManifest); err != nil {
		sp.tier.softFails.Add(1)
		return
	}
	sp.ckpts.Add(1)
	// 5. The new manifest is durable: files it no longer references can go.
	sp.tier.prune()
	for w := range e.ws {
		sp.qs[w].pruneAfterManifest()
	}
}

// appendManifest appends the cut to the manifest header (world must be
// parked or final).
func (e *sharded[T]) appendManifest(b []byte) []byte {
	sp := e.sp
	b = binary.AppendUvarint(b, uint64(len(e.ws)))
	b = binary.AppendUvarint(b, uint64(e.next.Load()))
	var processed, dedup int64
	for i := range e.ws {
		processed += e.ws[i].processed
		dedup += e.ws[i].dedup
	}
	b = binary.AppendUvarint(b, uint64(sp.baseProcessed+processed))
	b = binary.AppendUvarint(b, uint64(sp.baseDedup+dedup))
	b = binary.AppendUvarint(b, uint64(sp.ckpts.Load()+1))
	for s := range e.ws {
		sh := &sp.tier.shards[s]
		b = binary.AppendUvarint(b, uint64(sh.gen))
		b = binary.AppendUvarint(b, uint64(len(sh.runs)))
		for _, run := range sh.runs {
			b = binary.AppendUvarint(b, uint64(len(run.name)))
			b = append(b, run.name...)
			b = binary.AppendUvarint(b, uint64(run.count))
		}
	}
	for w := range e.ws {
		q := sp.qs[w]
		segs := q.manifestSegs()
		b = binary.AppendUvarint(b, uint64(q.seq))
		b = binary.AppendUvarint(b, uint64(len(segs)))
		for _, s := range segs {
			b = binary.AppendUvarint(b, uint64(len(s.name)))
			b = append(b, s.name...)
			b = binary.AppendUvarint(b, uint64(s.count))
		}
	}
	edges := EdgeLog{sp.resumeEdges}
	for i := range e.ws {
		edges = append(edges, e.ws[i].edges...)
	}
	b = binary.AppendUvarint(b, uint64(edges.Len()))
	for _, c := range edges {
		for _, ed := range c {
			b = binary.AppendUvarint(b, uint64(ed.From))
			b = binary.AppendUvarint(b, uint64(ed.To))
		}
	}
	var aux []byte
	if sp.cfg.Aux != nil {
		aux = sp.cfg.Aux()
	}
	b = binary.AppendUvarint(b, uint64(len(aux)))
	return append(b, aux...)
}

// tryResume restores the engine from the manifest in the spill
// directory.  Returns false when no manifest exists (fresh start).  A
// manifest that is corrupt, from a different job, or inconsistent with
// its data files refuses to resume with a diagnosable error
// (frame.ErrCannotResume) rather than exploring from a wrong cut.
func (e *sharded[T]) tryResume() (bool, error) {
	sp := e.sp
	referenced := map[string]bool{ManifestName: true}
	found, err := sp.manifest.Read(func(r *frame.Reader) error {
		if w := int(r.Uvarint("manifest workers")); w != len(e.ws) {
			return fmt.Errorf("written by %d workers, run has %d", w, len(e.ws))
		}
		e.next.Store(int64(r.Uvarint("manifest next id")))
		sp.baseProcessed = int64(r.Uvarint("manifest processed"))
		sp.baseDedup = int64(r.Uvarint("manifest dedup"))
		sp.ckpts.Store(int64(r.Uvarint("manifest checkpoints")))
		for s := range e.ws {
			sh := &sp.tier.shards[s]
			sh.gen = int64(r.Uvarint("shard gen"))
			for i, n := 0, r.Count("shard runs"); i < n; i++ {
				// Opened below, once the whole manifest has decoded.
				sh.runs = append(sh.runs, &tierRun{name: string(r.Bytes("run name")), count: int64(r.Uvarint("run count"))})
			}
		}
		for w := range e.ws {
			q := sp.qs[w]
			q.seq = int64(r.Uvarint("queue seq"))
			for i, n := 0, r.Count("queue segs"); i < n; i++ {
				seg := &spillSegment{name: string(r.Bytes("segment name")), count: int64(r.Uvarint("segment count"))}
				q.segs = append(q.segs, seg)
				referenced[seg.name] = true
			}
		}
		nedges := r.Count("manifest edges")
		sp.resumeEdges = make([]Edge, 0, nedges)
		for i := 0; i < nedges; i++ {
			sp.resumeEdges = append(sp.resumeEdges, Edge{
				From: int64(r.Uvarint("edge from")),
				To:   int64(r.Uvarint("edge to")),
			})
		}
		if aux := r.Bytes("manifest aux"); sp.cfg.RestoreAux != nil && r.Err() == nil {
			return sp.cfg.RestoreAux(aux)
		}
		return nil
	})
	if !found || err != nil {
		return false, err
	}
	for s := range e.ws {
		sh := &sp.tier.shards[s]
		for i, run := range sh.runs {
			if sh.runs[i], err = sp.tier.openRun(s, run.name, run.count); err != nil {
				sh.runs = sh.runs[:i]
				if errors.Is(err, frame.ErrCorrupt) || errors.Is(err, iofs.ErrNotExist) {
					err = frame.CannotResume(err)
				}
				return false, fmt.Errorf("%w; refusing to resume — delete the spill directory to restart from scratch", err)
			}
			referenced[run.name] = true
		}
		// The shard's keys are all on disk and none in RAM.
		e.ws[s].cold = len(sh.runs) > 0
	}
	// Post-cut debris: delete every spill artifact the manifest does not
	// name (runs flushed after the cut, superseded compactions, consumed
	// segments) so the resumed run sees exactly the cut.
	if ents, err := sp.fs.ReadDir(sp.cfg.Dir); err == nil {
		for _, ent := range ents {
			name := ent.Name()
			if referenced[name] || ent.IsDir() {
				continue
			}
			if strings.HasSuffix(name, ".run") || strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") {
				sp.fs.Remove(filepath.Join(sp.cfg.Dir, name))
			}
		}
	}
	// Every restored frontier item is an outstanding unit: credit its
	// owner's created counter so quiescence cannot fire before reload.
	for w := range e.ws {
		if n := sp.qs[w].pending(); n > 0 {
			e.ws[w].created.Add(n)
		}
	}
	sp.resumed = true
	return true, nil
}

// spillFinish runs after the workers join: close handles, fold the tier
// into the stats, and either clean the directory (completed run) or
// write a final manifest (interrupted run keeps its last cut — the
// manifest on disk is already consistent, nothing to do).
func (e *sharded[T]) spillFinish(res *ShardedResult) {
	sp := e.sp
	st := &res.Stats
	st.Spill = sp.tier.stats()
	st.Spill.Checkpoints = sp.ckpts.Load()
	st.Spill.Resumed = sp.resumed
	for _, q := range sp.qs {
		st.Spill.FrontierSpilled += q.spilled.Load()
		st.Spill.FrontierLoaded += q.loaded.Load()
	}
	st.Processed += sp.baseProcessed
	st.DedupHits += sp.baseDedup
	st.Census.Collisions += sp.tier.collFlushed.Load()
	res.Edges = append(EdgeLog{sp.resumeEdges}, res.Edges...)
	if sp.failed.Load() && res.Err == nil {
		res.Err = sp.failErr
	}
	if sp.intr.Load() && res.Stats.Stopped && res.Err == nil {
		// Only an interrupt that actually stopped the run reports as one;
		// a run that reached quiescence despite the request keeps its
		// completed verdict.
		res.Err = ErrInterrupted
	}
	sp.tier.close()
	if !res.Stats.Stopped && !sp.cfg.KeepFiles {
		// Clean completion: remove the manifest first so a crash mid-
		// cleanup can only leave orphan data files (a later Resume then
		// starts fresh), never a manifest pointing at deleted data.
		sp.manifest.Remove()
		sp.tier.prune()
		for s := range sp.tier.shards {
			for _, run := range sp.tier.shards[s].runs {
				sp.fs.Remove(filepath.Join(sp.cfg.Dir, run.name))
			}
		}
		for _, q := range sp.qs {
			q.removeAll()
		}
	}
}
