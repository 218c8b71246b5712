package dist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
)

// Checkpoint format: one frame (same [len][type][payload][fingerprint]
// envelope as the wire, type msgCheckpoint) holding the coordinator's
// entire authoritative state:
//
//	jobHash — fingerprint of the encoded job+options, so a snapshot
//	          can only resume the job that wrote it
//	aggregate so far (vector cursor, configs, complete, livelock,
//	          decisions, harvested counters)
//	current vector: inputs, per-shard mirror keys in admission order
//	          (gids are positional, so no ids are stored), edges,
//	          decisions, flags, counters, and the outstanding frontier —
//	          queued items plus in-flight batches flattened back into
//	          the queue, since an unacknowledged batch is
//	          indistinguishable from an undispatched one after restart
//
// The file is written to a temp sibling and renamed into place, so a
// crash mid-snapshot leaves the previous snapshot intact.  Re-running a
// frontier item that had in fact been processed before the snapshot is
// harmless: emits dedup against the mirror, edges and decisions are
// idempotent, only telemetry counters inflate.
const msgCheckpoint byte = 0x43

// Version 2 added the vector's violated flag (a checkpoint is written
// the moment a violation is seen, so a killed coordinator re-reports
// instead of re-exploring) and the full recovery counter block.  Two of
// that block's slots held counters of recovery paths since retired
// (speculative re-dispatches, memory-backpressure pauses); they are
// written as 0 and skipped on read, so older snapshots still resume.
const checkpointVersion = 2

// jobHash fingerprints everything that determines the exploration
// universe; a checkpoint from a different protocol, vector mode,
// budget, crash schedule or shard count must not resume.
func (co *coord) jobHash() uint64 {
	b := jobMsg{
		Spec:       co.job.Spec,
		Inputs:     co.job.Inputs,
		NoSymmetry: co.opts.Valency.NoSymmetry,
		Crash:      co.opts.Valency.Crash,
		Shards:     co.S,
	}.encode()
	b = putUvarint(b, uint64(co.opts.Valency.Budget()))
	if co.job.AllInputs {
		b = append(b, 1)
	}
	return sim.FingerprintBytes(b)
}

func (co *coord) encodeCheckpoint() []byte {
	b := putUvarint(nil, checkpointVersion)
	b = putUvarint(b, co.jobHash())

	// Aggregate.
	b = putUvarint(b, uint64(co.vecIdx))
	b = putUvarint(b, uint64(co.agg.Configs))
	b = putUvarint(b, boolBit(co.agg.Complete)|boolBit(co.agg.Livelock)<<1)
	b = putDecisions(b, co.agg.Decisions)
	b = putUvarint(b, uint64(co.aggStats.Generated))
	b = putUvarint(b, uint64(co.aggStats.DedupHits))
	b = putUvarint(b, uint64(co.aggStats.KeyBytes))
	b = putUvarint(b, uint64(co.aggStats.RemoteItems))
	b = putUvarint(b, uint64(co.aggStats.MinStripeKeys))
	b = putUvarint(b, uint64(co.aggStats.MaxStripeKeys))
	b = putUvarint(b, uint64(co.batches))
	b = putUvarint(b, uint64(co.rec.Reconnects))
	b = putUvarint(b, uint64(co.rec.WorkerDeaths))
	b = putUvarint(b, uint64(co.rec.RequeuedBatches))
	b = putUvarint(b, 0) // retired slot
	b = putUvarint(b, uint64(co.rec.CheckpointResumes))
	b = putUvarint(b, uint64(co.rec.CheckpointsWritten))
	b = putUvarint(b, 0) // retired slot

	// Current vector.
	v := co.vec
	b = putUvarint(b, uint64(len(v.inputs)))
	for _, in := range v.inputs {
		b = putVarint(b, in)
	}
	b = putUvarint(b, boolBit(v.incomplete)|boolBit(v.violated)<<1)
	b = putUvarint(b, uint64(v.generated))
	b = putUvarint(b, uint64(v.dedupHits))
	b = putUvarint(b, uint64(v.keyBytes))
	b = putUvarint(b, uint64(v.remote))
	for s := 0; s < co.S; s++ {
		m := &v.mirror[s]
		b = putUvarint(b, uint64(len(m.keys)))
		for _, k := range m.keys {
			b = putString(b, k)
		}
	}
	b = putUvarint(b, uint64(len(v.edges)))
	for _, e := range v.edges {
		b = putUvarint(b, uint64(e.From))
		b = putUvarint(b, uint64(e.To))
	}
	b = putDecisions(b, v.decisions)

	// Outstanding frontier: queued plus flattened in-flight.
	n := v.queuedLen
	for _, bt := range co.inflight {
		n += len(bt.items)
	}
	b = putUvarint(b, uint64(n))
	for s := range v.queues {
		for _, it := range v.queues[s] {
			b = putUvarint(b, uint64(it.gid))
			b = putBytes(b, it.sched)
		}
	}
	for _, bt := range co.inflight {
		for _, it := range bt.items {
			b = putUvarint(b, uint64(it.gid))
			b = putBytes(b, it.sched)
		}
	}
	return b
}

func (co *coord) decodeCheckpoint(p []byte) error {
	r := &wreader{b: p}
	if v := r.uvarint("ckpt version"); v != checkpointVersion {
		return fmt.Errorf("dist: checkpoint version %d, want %d", v, checkpointVersion)
	}
	if h := r.uvarint("ckpt job hash"); h != co.jobHash() {
		return errors.New("dist: checkpoint was written by a different job")
	}

	co.vecIdx = int(r.uvarint("ckpt vector cursor"))
	co.agg.Configs = int(r.uvarint("ckpt configs"))
	flags := r.uvarint("ckpt flags")
	co.agg.Complete = flags&1 != 0
	co.agg.Livelock = flags&2 != 0
	co.agg.Decisions = readDecisions(r)
	co.aggStats.Generated = int64(r.uvarint("ckpt generated"))
	co.aggStats.DedupHits = int64(r.uvarint("ckpt dedup"))
	co.aggStats.KeyBytes = int64(r.uvarint("ckpt keybytes"))
	co.aggStats.RemoteItems = int64(r.uvarint("ckpt remote"))
	co.aggStats.MinStripeKeys = int64(r.uvarint("ckpt min stripe"))
	co.aggStats.MaxStripeKeys = int64(r.uvarint("ckpt max stripe"))
	if co.vecIdx > 0 {
		// The folded vectors each reported a census of S shards; the
		// aggregate's Stripes says so, or the next fold would take its
		// MinStripeKeys for unset (see valency.Report.Fold).
		co.aggStats.Stripes = co.S
	}
	co.batches = int64(r.uvarint("ckpt batches"))
	co.rec.Reconnects = int64(r.uvarint("ckpt reconnects"))
	co.rec.WorkerDeaths = int64(r.uvarint("ckpt worker deaths"))
	co.rec.RequeuedBatches = int64(r.uvarint("ckpt requeued"))
	r.uvarint("ckpt retired slot")
	co.rec.CheckpointResumes = int64(r.uvarint("ckpt resumes"))
	co.rec.CheckpointsWritten = int64(r.uvarint("ckpt checkpoints"))
	r.uvarint("ckpt retired slot")

	ni := r.uvarint("ckpt inputs len")
	inputs := make([]int64, 0, ni)
	for i := uint64(0); i < ni && r.fail == nil; i++ {
		inputs = append(inputs, r.varint("ckpt input"))
	}
	v := newVectorState(inputs, co.S)
	vflags := r.uvarint("ckpt vector flags")
	v.incomplete = vflags&1 != 0
	v.violated = vflags&2 != 0
	v.generated = int64(r.uvarint("ckpt vec generated"))
	v.dedupHits = int64(r.uvarint("ckpt vec dedup"))
	v.keyBytes = int64(r.uvarint("ckpt vec keybytes"))
	v.remote = int64(r.uvarint("ckpt vec remote"))
	for s := 0; s < co.S && r.fail == nil; s++ {
		nk := r.uvarint("ckpt shard len")
		m := &v.mirror[s]
		for i := uint64(0); i < nk && r.fail == nil; i++ {
			k := r.str("ckpt key")
			m.index[k] = int64(len(m.keys))
			m.keys = append(m.keys, k)
		}
	}
	ne := r.uvarint("ckpt edges len")
	for i := uint64(0); i < ne && r.fail == nil; i++ {
		v.edges = append(v.edges, explore.Edge{
			From: int64(r.uvarint("ckpt edge from")),
			To:   int64(r.uvarint("ckpt edge to")),
		})
	}
	v.decisions = readDecisions(r)
	nq := r.uvarint("ckpt frontier len")
	co.vec = v
	for i := uint64(0); i < nq && r.fail == nil; i++ {
		co.enqueue(item{
			gid:   int64(r.uvarint("ckpt item gid")),
			sched: r.bytes("ckpt item sched"),
		})
	}
	return r.err()
}

// checkpointNow snapshots atomically and durably: the frame is written
// to a temp sibling, fsync'd, renamed into place, and the directory is
// fsync'd, so a machine crash at any instant leaves either the previous
// snapshot or the new one — never a torn file.  Failures are reported
// on stderr but never abort the run — a missed snapshot only costs
// re-exploration after a crash.
func (co *coord) checkpointNow() {
	path := co.opts.CheckpointPath
	if path == "" || co.vec == nil {
		return
	}
	payload := co.encodeCheckpoint()
	err := frame.WriteFileAtomic(frame.OS{}, path, func(w io.Writer) error {
		return writeFrame(w, msgCheckpoint, payload)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: checkpoint: %v\n", err)
		return
	}
	co.rec.CheckpointsWritten++
}

// tryResume loads the checkpoint file if Options name one and it
// exists; reports whether the coordinator state was restored.  The
// frame's embedded fingerprint is re-verified on the way in and any
// mismatch — truncation, bit flips, trailing garbage, a different job —
// refuses to resume with a diagnosable error rather than silently
// exploring from a corrupt frontier.
func (co *coord) tryResume() (bool, error) {
	path := co.opts.CheckpointPath
	if path == "" {
		return false, nil
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	base := filepath.Base(path)
	typ, payload, err := readFrame(f)
	if err != nil {
		return false, fmt.Errorf("dist: checkpoint %s is corrupt or truncated (%w); refusing to resume — delete it to restart the job from scratch", base, err)
	}
	if typ != msgCheckpoint {
		return false, fmt.Errorf("dist: %s is not a checkpoint file; refusing to resume", base)
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return false, fmt.Errorf("dist: checkpoint %s has trailing bytes after the snapshot frame; refusing to resume — delete it to restart the job from scratch", base)
	}
	if err := co.decodeCheckpoint(payload); err != nil {
		return false, err
	}
	co.rec.CheckpointResumes++
	return true, nil
}

func (co *coord) removeCheckpoint() {
	if co.opts.CheckpointPath != "" {
		os.Remove(co.opts.CheckpointPath)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func putDecisions(b []byte, d map[int64]bool) []byte {
	b = putUvarint(b, uint64(len(d)))
	for v := range d {
		b = putVarint(b, v)
	}
	return b
}

func readDecisions(r *wreader) map[int64]bool {
	n := r.uvarint("decisions len")
	d := make(map[int64]bool, n)
	for i := uint64(0); i < n && r.fail == nil; i++ {
		d[r.varint("decision")] = true
	}
	return d
}
