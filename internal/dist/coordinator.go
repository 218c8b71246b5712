package dist

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// Serve runs the coordinator: it accepts worker connections from ln
// until `expect` distinct worker identities have joined, drives the job
// to completion, and returns the aggregated report.  The report's
// verdict fields (Complete, Configs, Violation, Decisions, Livelock)
// equal a serial valency run of the same job; Stats carries the cluster
// telemetry, Stats.Recovery the self-healing audit trail.
//
// The listener stays open for the whole run: a worker that loses its
// connection re-handshakes with the same identity and rejoins as
// itself — the coordinator re-queues only that worker's unacknowledged
// batches and keeps going.  Serve does not close ln; the caller owns it.
func Serve(ln net.Listener, expect int, job Job, opts Options) (*valency.Report, error) {
	if !job.AllInputs && len(job.Inputs) == 0 {
		return nil, fmt.Errorf("dist: job needs Inputs or AllInputs")
	}
	if expect < 1 {
		return nil, fmt.Errorf("dist: need at least one worker")
	}
	co, err := newCoord(job, opts)
	if err != nil {
		return nil, err
	}
	defer co.closeAll()
	go co.acceptLoop(ln)
	if err := co.waitForWorkers(expect); err != nil {
		return nil, err
	}
	return co.run()
}

// event is one message into the coordinator's single-threaded loop; all
// mutable coordinator state is owned by that loop, so there is no lock.
// Events carry the *wconn they came from (not a slot index): a rejoin
// replaces a slot's wconn, and events from the superseded connection
// must become no-ops, not act on the new one.
type event struct {
	w       *wconn // source connection; nil for join and listener events
	typ     byte
	payload []byte
	err     error    // non-nil: the connection (or listener) died
	join    *joinReq // non-nil: a completed worker handshake
}

// joinReq is a handshaken worker connection awaiting admission by the
// event loop.
type joinReq struct {
	conn     net.Conn
	br       *bufio.Reader
	identity uint64
}

type wconn struct {
	slot     int
	identity uint64
	conn     net.Conn
	out      chan outFrame
	flushed  chan struct{} // closed when the writer goroutine exits
	dead     bool
	inflight int
	lastPong time.Time
}

type outFrame struct {
	typ     byte
	payload []byte
}

type batch struct {
	id     int64
	worker int // slot of the current assignee
	items  []item
}

// shardMirror is the authoritative visited set of one fingerprint
// shard: keys in admission order (index = localID) plus the dedup
// index.  Schedules are kept only while a key's item is still queued or
// in flight; processed configurations need no replay payload.
type shardMirror struct {
	index map[string]int64 // key bytes -> localID
	keys  []string         // localID -> key (admission order)
}

// vectorState is the per-input-vector exploration state — everything a
// checkpoint must capture to resume the vector.
type vectorState struct {
	inputs     []int64
	mirror     []shardMirror
	queue      []item         // the frontier awaiting dispatch, FIFO
	edges      []explore.Edge // gid-space edges
	decisions  map[int64]bool
	violated   bool
	incomplete bool
	generated  int64
	dedupHits  int64
	keyBytes   int64
	remote     int64
}

type coord struct {
	job   Job
	opts  Options
	proto sim.Protocol
	S     int

	workers []*wconn       // slot-indexed; a slot's wconn is replaced on rejoin
	byID    map[uint64]int // worker identity -> slot
	events  chan event
	done    chan struct{} // closed on Serve exit; unblocks reader/writer sends
	lnErr   error         // listener died: no further joins can arrive

	vec    *vectorState
	vecIdx int    // cursor into the AllInputs sweep (0 for single-vector)
	epoch  uint64 // current vector's wire epoch (vecIdx+1); stamps every batch
	// agg, its Stats and rec are allocations of their own: the report
	// handed to the caller must not point into (and so pin) the coord.
	agg *valency.Report
	rec *valency.RecoveryStats

	inflight   map[int64]*batch
	nextBatch  int64
	nextPing   uint64
	batches    int64
	curJob     []byte    // encoded jobMsg while a vector runs; joins mid-vector replay it
	graceUntil time.Time // zero-worker rejoin deadline; zero while any worker lives
	started    time.Time
}

func newCoord(job Job, opts Options) (*coord, error) {
	proto, err := zoo.Resolve(job.Spec)
	if err != nil {
		return nil, err
	}
	co := &coord{
		job:      job,
		opts:     opts,
		proto:    proto,
		S:        opts.shards(),
		byID:     make(map[uint64]int),
		events:   make(chan event, 256),
		done:     make(chan struct{}),
		inflight: make(map[int64]*batch),
		agg:      &valency.Report{Complete: true, Decisions: make(map[int64]bool), Stats: &valency.Stats{}},
		rec:      &valency.RecoveryStats{},
		started:  time.Now(),
	}
	return co, nil
}

// acceptLoop admits connections for the lifetime of the listener — not
// just the initial `expect` — so late joiners and reconnecting workers
// always find the door open.  Each connection handshakes on its own
// goroutine so a half-open socket cannot stall admission of the rest.
func (co *coord) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			co.post(event{err: err}) // w==nil, join==nil: listener death
			return
		}
		go co.handshake(conn)
	}
}

// handshake reads the HELLO under a deadline and posts the join; a
// connection that speaks the wrong protocol (or nothing at all) is
// dropped without involving the event loop.
func (co *coord) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(co.opts.netTimeout()))
	br := bufio.NewReader(conn)
	typ, payload, err := frame.Read(br)
	if err != nil || typ != msgHello {
		conn.Close()
		return
	}
	hm, err := decodeHello(payload)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if !co.post(event{join: &joinReq{conn: conn, br: br, identity: hm.Identity}}) {
		conn.Close()
	}
}

// waitForWorkers runs the event loop until `expect` workers are alive,
// heartbeating the early joiners so their connections stay warm.
func (co *coord) waitForWorkers(expect int) error {
	ticker := time.NewTicker(co.opts.heartbeatEvery())
	defer ticker.Stop()
	for co.alive() < expect {
		if co.lnErr != nil {
			return fmt.Errorf("dist: listener died with %d of %d workers joined: %w", co.alive(), expect, co.lnErr)
		}
		select {
		case ev := <-co.events:
			co.handle(ev)
		case <-co.opts.Interrupt:
			// Nothing has started (run resumes, if at all, after this
			// returns), so there is nothing to checkpoint yet.
			return ErrInterrupted
		case <-ticker.C:
			co.heartbeat()
		}
	}
	return nil
}

func (co *coord) reader(w *wconn, br *bufio.Reader) {
	for {
		w.conn.SetReadDeadline(time.Now().Add(co.opts.netTimeout()))
		typ, payload, err := frame.Read(br)
		if err != nil {
			co.post(event{w: w, err: err})
			return
		}
		if !co.post(event{w: w, typ: typ, payload: payload}) {
			return
		}
	}
}

// post delivers an event to the loop, or reports false after shutdown —
// late reader/writer goroutines must never block on a loop that exited.
func (co *coord) post(ev event) bool {
	select {
	case co.events <- ev:
		return true
	case <-co.done:
		return false
	}
}

func (co *coord) writer(w *wconn) {
	defer close(w.flushed)
	bw := bufio.NewWriter(w.conn)
	for f := range w.out {
		w.conn.SetWriteDeadline(time.Now().Add(co.opts.netTimeout()))
		if err := frame.Write(bw, f.typ, f.payload); err != nil {
			co.post(event{w: w, err: err})
			return
		}
		if len(w.out) == 0 {
			w.conn.SetWriteDeadline(time.Now().Add(co.opts.netTimeout()))
			if err := bw.Flush(); err != nil {
				co.post(event{w: w, err: err})
				return
			}
		}
	}
	w.conn.SetWriteDeadline(time.Now().Add(co.opts.netTimeout()))
	bw.Flush() // queue closed with frames still buffered (shutdown STOP)
}

func (co *coord) send(w *wconn, typ byte, payload []byte) {
	if w.dead {
		return
	}
	select {
	case w.out <- outFrame{typ, payload}:
	default:
		// Outbound queue full: the worker has stopped draining.  Treat
		// as dead rather than block the event loop.
		co.markDead(w, fmt.Errorf("dist: worker %d outbound queue full", w.slot))
	}
}

// closeAll tears the cluster down: live workers' outbound queues are
// closed (the writer goroutine drains the STOP frame and exits) and
// every connection is closed, unblocking readers.
func (co *coord) closeAll() {
	close(co.done)
	for _, w := range co.workers {
		if !w.dead {
			w.dead = true
			close(w.out)
			// Let the writer drain the buffered STOP frame before the
			// connection closes under it, so a healthy worker exits
			// cleanly instead of reading EOF; a worker that has stopped
			// draining must not stall coordinator exit.
			select {
			case <-w.flushed:
			case <-time.After(time.Second):
			}
		}
		w.conn.Close()
	}
}

func (co *coord) alive() int {
	n := 0
	for _, w := range co.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// handleJoin admits a handshaken connection.  A known identity is a
// rejoin: the old connection (if still considered alive) is superseded —
// its unacknowledged batches re-queue exactly as for a death — and the
// fresh connection takes over the same slot, so the worker keeps its
// identity in the census.  An unknown identity is a new peer.
func (co *coord) handleJoin(j *joinReq) {
	slot, known := co.byID[j.identity]
	if known {
		if old := co.workers[slot]; !old.dead {
			co.markDead(old, fmt.Errorf("dist: worker %d superseded by rejoin", slot))
		}
		co.rec.Reconnects++
	} else {
		slot = len(co.workers)
		co.workers = append(co.workers, nil)
		co.byID[j.identity] = slot
	}
	w := &wconn{
		slot: slot, identity: j.identity, conn: j.conn,
		out: make(chan outFrame, 64), flushed: make(chan struct{}),
		lastPong: time.Now(),
	}
	co.workers[slot] = w
	co.graceUntil = time.Time{}
	go co.reader(w, j.br)
	go co.writer(w)
	if co.curJob != nil {
		co.send(w, msgJob, co.curJob)
	}
}

// run drives the whole job: resume-or-start, then one vector at a time
// in canonical order, aggregating exactly like valency.CheckAllInputs.
func (co *coord) run() (*valency.Report, error) {
	resumed, err := co.tryResume()
	if err != nil {
		return nil, err
	}
	co.agg.Stats.Shards = co.S

	vectors := 1
	if co.job.AllInputs {
		vectors = 1 << co.job.Spec.N
	}
	for ; co.vecIdx < vectors; co.vecIdx++ {
		if co.vec == nil || !resumed {
			co.vec = newVectorState(co.vectorInputs(co.vecIdx), co.S)
			co.seedInitial()
		}
		resumed = false
		var rep *valency.Report
		if co.vec.violated {
			// Resumed from a checkpoint written at violation time: the
			// distributed verdict is already known, go straight to the
			// canonical serial re-run in foldVector.
			rep = co.vectorReport()
		} else {
			rep, err = co.runVector()
			if err != nil {
				return nil, err
			}
		}
		if done := co.foldVector(rep); done != nil {
			co.stop()
			co.removeCheckpoint()
			return done, nil
		}
	}
	co.stop()
	co.removeCheckpoint()
	co.finalizeStats()
	if !co.job.AllInputs {
		co.agg.Inputs = append([]int64(nil), co.job.Inputs...)
	}
	return co.agg, nil
}

func (co *coord) vectorInputs(i int) []int64 {
	if !co.job.AllInputs {
		return append([]int64(nil), co.job.Inputs...)
	}
	return valency.InputVector(i, co.job.Spec.N)
}

func newVectorState(inputs []int64, S int) *vectorState {
	v := &vectorState{
		inputs:    inputs,
		mirror:    make([]shardMirror, S),
		decisions: make(map[int64]bool),
	}
	for s := range v.mirror {
		v.mirror[s].index = make(map[string]int64)
	}
	return v
}

// seedInitial admits the initial configuration into the mirror and
// queues it as the first frontier item.
func (co *coord) seedInitial() {
	c := sim.NewConfig(co.proto, co.vec.inputs)
	var k sim.Keyer
	k.Symmetry = co.opts.Valency.SymmetryOn()
	key := co.opts.Valency.AppendVisitKey(&k, c, nil)
	gid, _, _ := co.admit(key)
	co.vec.queue = append(co.vec.queue, item{gid: gid})
}

// admit dedups a visit key against the mirror; on a miss it assigns the
// key's gid.  Returns (gid, added, totalKeys-after).
func (co *coord) admit(key []byte) (int64, bool, int64) {
	fp := sim.FingerprintBytes(key)
	s := int(fp % uint64(co.S))
	m := &co.vec.mirror[s]
	if id, ok := m.index[string(key)]; ok {
		co.vec.dedupHits++
		return gidOf(id, s, co.S), false, co.totalKeys()
	}
	local := int64(len(m.keys))
	ks := string(key)
	m.keys = append(m.keys, ks)
	m.index[ks] = local
	co.vec.keyBytes += int64(len(key))
	return gidOf(local, s, co.S), true, co.totalKeys()
}

func (co *coord) totalKeys() int64 {
	var n int64
	for s := range co.vec.mirror {
		n += int64(len(co.vec.mirror[s].keys))
	}
	return n
}

// runVector processes one input vector to quiescence and returns its
// per-vector report (violation field nil even when violated — the
// caller re-runs serially for the canonical counterexample).
func (co *coord) runVector() (*valency.Report, error) {
	co.epoch = uint64(co.vecIdx) + 1
	jm := jobMsg{
		Spec:       co.job.Spec,
		Inputs:     co.vec.inputs,
		NoSymmetry: co.opts.Valency.NoSymmetry,
		Crash:      co.opts.Valency.Crash,
		Workers:    co.opts.Valency.Workers,
		Shards:     co.S,
		Epoch:      co.epoch,
	}
	co.curJob = jm.encode()
	defer func() { co.curJob = nil }()
	for _, w := range co.workers {
		co.send(w, msgJob, co.curJob)
	}

	ticker := time.NewTicker(co.opts.heartbeatEvery())
	defer ticker.Stop()

	co.pump()
	for !co.quiescent() {
		select {
		case ev := <-co.events:
			co.handle(ev)
			if co.opts.AbortAfterBatches > 0 && co.batches >= co.opts.AbortAfterBatches {
				co.checkpointNow()
				return nil, ErrAborted
			}
			if co.vec.violated {
				// Persist the verdict before reporting: a coordinator
				// killed between discovery and the serial re-run resumes
				// straight into re-reporting, not re-exploring.
				co.checkpointNow()
				return co.vectorReport(), nil
			}
		case <-co.opts.Interrupt:
			// Graceful drain: snapshot the authoritative state (in-flight
			// batches flatten back into the frontier) and hand the caller
			// the resumable-interrupt sentinel.
			co.checkpointNow()
			return nil, ErrInterrupted
		case <-ticker.C:
			co.heartbeat()
		}
		if err := co.checkLiveness(); err != nil {
			return nil, err
		}
		co.pump()
	}
	return co.vectorReport(), nil
}

// checkLiveness arbitrates the zero-workers state: the first tick with
// nobody alive checkpoints (the crash-safe record of the frontier) and
// opens a rejoin grace window; only when the window expires — or the
// listener is gone, so no rejoin can ever arrive — does the run give up.
func (co *coord) checkLiveness() error {
	if co.alive() > 0 {
		co.graceUntil = time.Time{}
		return nil
	}
	if co.graceUntil.IsZero() {
		co.checkpointNow()
		co.graceUntil = time.Now().Add(co.opts.rejoinGrace())
	}
	if co.lnErr != nil || time.Now().After(co.graceUntil) {
		return ErrAllWorkersLost
	}
	return nil
}

func (co *coord) quiescent() bool {
	return len(co.vec.queue) == 0 && len(co.inflight) == 0
}

// handle folds one event into the coordinator state.  Per-connection
// failures — decode errors, unexpected frames, connection death — kill
// that connection only; the job survives anything short of losing every
// worker past the grace window.
func (co *coord) handle(ev event) {
	if ev.join != nil {
		co.handleJoin(ev.join)
		return
	}
	if ev.w == nil {
		co.lnErr = ev.err
		return
	}
	w := ev.w
	if w.dead {
		return // superseded or already-buried connection: drop
	}
	if ev.err != nil {
		co.markDead(w, ev.err)
		return
	}
	switch ev.typ {
	case msgHello:
		// A duplicated HELLO on an established connection (wire chaos):
		// the handshake already consumed the authoritative one.
	case msgPong:
		w.lastPong = time.Now()
	case msgDone:
		dm, err := decodeDone(ev.payload)
		if err != nil {
			// Passed the frame checksum but not the decoder: poison from
			// this connection kills the connection, not the job.
			co.markDead(w, err)
			return
		}
		if dm.Epoch != co.epoch {
			// An ack computed against another vector's job — a repeated
			// frame from before the vector changed — carries keys from
			// the *wrong input vector's* state space and must never be
			// admitted.  Kill the connection: the rejoin re-sends the
			// current job, and its in-flight batches re-queue.
			co.markDead(w, fmt.Errorf("dist: worker %d acked epoch %d during epoch %d (frame from another vector)", w.slot, dm.Epoch, co.epoch))
			return
		}
		b, ok := co.inflight[dm.ID]
		if !ok || b.worker != w.slot {
			// An ack of a batch this connection does not hold — a
			// repeated frame, or a stray id: only the current
			// assignee's ack retires a batch, everything else is noise.
			return
		}
		delete(co.inflight, dm.ID)
		w.inflight--
		co.batches++
		co.applyDone(dm)
		if p := co.opts.CheckpointPath; p != "" && co.batches%co.opts.checkpointEvery() == 0 {
			co.checkpointNow()
		}
	default:
		co.markDead(w, fmt.Errorf("dist: unexpected frame type %d from worker %d", ev.typ, w.slot))
	}
}

// applyDone folds one batch's atomic effect set into the vector state:
// union decisions, record every emit's edge, admit the new keys, queue
// admitted items (unless the config budget is spent).
func (co *coord) applyDone(dm doneMsg) {
	v := co.vec
	v.generated += dm.Generated
	if dm.Violated {
		v.violated = true
		return
	}
	for _, d := range dm.Decisions {
		v.decisions[d] = true
	}
	budget := int64(co.opts.Valency.Budget())
	for _, e := range dm.Emits {
		gid, added, total := co.admit(e.key)
		v.edges = append(v.edges, explore.Edge{From: e.from, To: gid})
		if !added {
			continue
		}
		if total > budget {
			v.incomplete = true
			continue
		}
		v.remote++
		v.queue = append(v.queue, item{gid: gid, sched: e.sched})
	}
}

// pump hands each live worker with capacity the next batchSize items
// of the frontier, whichever shards they hash to, round-robin until the
// queue is empty or every worker is saturated.  Workers are stateless
// replay engines, so any worker can take any item.
func (co *coord) pump() {
	v := co.vec
	if v == nil || v.violated {
		return
	}
	for sent := true; sent; {
		sent = false
		for _, w := range co.workers {
			if len(v.queue) == 0 {
				return
			}
			if w.dead || w.inflight >= maxInflight {
				continue
			}
			n := min(len(v.queue), batchSize)
			co.nextBatch++
			b := &batch{id: co.nextBatch, worker: w.slot, items: v.queue[:n:n]}
			v.queue = v.queue[n:]
			co.inflight[b.id] = b
			w.inflight++
			co.send(w, msgBatch, batchMsg{ID: b.id, Epoch: co.epoch, Items: b.items}.encode())
			sent = true
		}
	}
}

// markDead declares a connection lost: its in-flight batches go back
// on the frontier (their effects were never applied — BATCH_DONE is
// atomic, so nothing partial leaked) for whichever worker is free
// next.  The worker behind it may rejoin at any time.
func (co *coord) markDead(w *wconn, cause error) {
	if w.dead {
		return
	}
	w.dead = true
	w.conn.Close()
	close(w.out)
	co.rec.WorkerDeaths++
	for id, b := range co.inflight {
		if b.worker != w.slot {
			continue
		}
		delete(co.inflight, id)
		w.inflight--
		co.rec.RequeuedBatches++
		co.vec.queue = append(co.vec.queue, b.items...)
	}
	_ = cause // deaths are expected events, not errors; cause aids debugging
}

// heartbeat pings every live worker and buries the ones silent past
// DeadAfter — dead, or stuck in a batch, which the coordinator cannot
// tell apart and need not: either way the batches re-queue.
func (co *coord) heartbeat() {
	deadline := time.Now().Add(-co.opts.deadAfter())
	for _, w := range co.workers {
		if w.dead {
			continue
		}
		if w.lastPong.Before(deadline) {
			co.markDead(w, fmt.Errorf("dist: worker %d heartbeat timeout", w.slot))
			continue
		}
		co.nextPing++
		co.send(w, msgPing, putUvarint(nil, co.nextPing))
	}
}

// vectorReport summarizes the finished (or violated) vector, with the
// vector's counters and shard census as its Stats.  Livelock runs
// HasCycle over the dense-remapped edge set, mirroring the parallel
// engine's post-pass.
func (co *coord) vectorReport() *valency.Report {
	v := co.vec
	rep := &valency.Report{
		Inputs:    append([]int64(nil), v.inputs...),
		Complete:  !v.incomplete && !v.violated,
		Configs:   int(co.totalKeys()),
		Decisions: v.decisions,
		Stats: &valency.Stats{
			Generated:   v.generated,
			DedupHits:   v.dedupHits,
			KeyBytes:    v.keyBytes,
			RemoteItems: v.remote,
			Stripes:     len(v.mirror),
		},
	}
	for s := range v.mirror {
		n := int64(len(v.mirror[s].keys))
		if s == 0 || n < rep.Stats.MinStripeKeys {
			rep.Stats.MinStripeKeys = n
		}
		rep.Stats.MaxStripeKeys = max(rep.Stats.MaxStripeKeys, n)
	}
	if !v.violated {
		rep.Livelock = explore.HasCycle(int(co.totalKeys()), co.denseEdges())
	}
	return rep
}

// denseEdges remaps gid-space edges (localID·S + shard, sparse across
// shards) onto the dense [0, totalKeys) node space HasCycle wants.
func (co *coord) denseEdges() []explore.Edge {
	offset := make([]int64, co.S)
	var total int64
	for s := 0; s < co.S; s++ {
		offset[s] = total
		total += int64(len(co.vec.mirror[s].keys))
	}
	dense := make([]explore.Edge, len(co.vec.edges))
	for i, e := range co.vec.edges {
		dense[i] = explore.Edge{
			From: offset[gidShard(e.From, co.S)] + gidLocal(e.From, co.S),
			To:   offset[gidShard(e.To, co.S)] + gidLocal(e.To, co.S),
		}
	}
	return dense
}

// foldVector merges one vector's report into the aggregate with the
// all-inputs fold every engine shares (valency.Report.Fold).  On a
// violated vector it discards the distributed result and folds the
// canonical serial checker's report for that vector instead, so the
// reported counterexample is byte-identical to a serial run's; it
// returns the final report when the job is decided early, nil to
// continue.
func (co *coord) foldVector(rep *valency.Report) *valency.Report {
	if co.vec.violated {
		serial := co.opts.Valency
		serial.Workers = 0
		rep = valency.Check(co.proto, co.vec.inputs, serial)
	}
	done := co.agg.Fold(rep)
	if done != nil {
		co.finalizeStats()
	}
	return done
}

func (co *coord) finalizeStats() {
	st := co.agg.Stats
	st.Workers = len(co.workers)
	st.Stripes = co.S
	st.Batches = co.batches
	st.Recoveries = co.rec.WorkerDeaths
	st.Checkpoints = co.rec.CheckpointsWritten
	st.Elapsed = time.Since(co.started)
	st.Recovery = co.rec
}

// stop tells every live worker the job is over.  Send errors at this
// point are harmless — the job is already decided.
func (co *coord) stop() {
	for _, w := range co.workers {
		co.send(w, msgStop, nil)
	}
}
