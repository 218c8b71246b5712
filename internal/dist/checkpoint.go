package dist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
	"randsync/internal/valency"
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
	b = valency.AppendDecisions(b, co.agg.Decisions)
	b = putUvarint(b, uint64(co.agg.Stats.Generated))
	b = putUvarint(b, uint64(co.agg.Stats.DedupHits))
	b = putUvarint(b, uint64(co.agg.Stats.KeyBytes))
	b = putUvarint(b, uint64(co.agg.Stats.RemoteItems))
	b = putUvarint(b, uint64(co.agg.Stats.MinStripeKeys))
	b = putUvarint(b, uint64(co.agg.Stats.MaxStripeKeys))
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
	b = valency.AppendDecisions(b, v.decisions)

	// Outstanding frontier: queued plus flattened in-flight, in batch-id
	// order so one state has one encoding.
	n := len(v.queue)
	ids := make([]int64, 0, len(co.inflight))
	for id, bt := range co.inflight {
		n += len(bt.items)
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = putUvarint(b, uint64(n))
	b = putItems(b, v.queue)
	for _, id := range ids {
		b = putItems(b, co.inflight[id].items)
	}
	return b
}

func (co *coord) decodeCheckpoint(p []byte) error {
	r := frame.NewReader(p)
	if v := r.Uvarint("ckpt version"); v != checkpointVersion {
		return fmt.Errorf("dist: checkpoint version %d, want %d", v, checkpointVersion)
	}
	if h := r.Uvarint("ckpt job hash"); h != co.jobHash() {
		return errors.New("dist: checkpoint was written by a different job")
	}

	co.vecIdx = int(r.Uvarint("ckpt vector cursor"))
	co.agg.Configs = int(r.Uvarint("ckpt configs"))
	flags := r.Uvarint("ckpt flags")
	co.agg.Complete = flags&1 != 0
	co.agg.Livelock = flags&2 != 0
	co.agg.Decisions = valency.ReadDecisions(r)
	co.agg.Stats.Generated = int64(r.Uvarint("ckpt generated"))
	co.agg.Stats.DedupHits = int64(r.Uvarint("ckpt dedup"))
	co.agg.Stats.KeyBytes = int64(r.Uvarint("ckpt keybytes"))
	co.agg.Stats.RemoteItems = int64(r.Uvarint("ckpt remote"))
	co.agg.Stats.MinStripeKeys = int64(r.Uvarint("ckpt min stripe"))
	co.agg.Stats.MaxStripeKeys = int64(r.Uvarint("ckpt max stripe"))
	if co.vecIdx > 0 {
		// The folded vectors each reported a census of S shards; the
		// aggregate's Stripes says so, or the next fold would take its
		// MinStripeKeys for unset (see valency.Report.Fold).
		co.agg.Stats.Stripes = co.S
	}
	co.batches = int64(r.Uvarint("ckpt batches"))
	co.rec.Reconnects = int64(r.Uvarint("ckpt reconnects"))
	co.rec.WorkerDeaths = int64(r.Uvarint("ckpt worker deaths"))
	co.rec.RequeuedBatches = int64(r.Uvarint("ckpt requeued"))
	r.Uvarint("ckpt retired slot")
	co.rec.CheckpointResumes = int64(r.Uvarint("ckpt resumes"))
	co.rec.CheckpointsWritten = int64(r.Uvarint("ckpt checkpoints"))
	r.Uvarint("ckpt retired slot")

	ni := r.Count("ckpt inputs len")
	inputs := make([]int64, 0, ni)
	for i := 0; i < ni; i++ {
		inputs = append(inputs, r.Varint("ckpt input"))
	}
	v := newVectorState(inputs, co.S)
	vflags := r.Uvarint("ckpt vector flags")
	v.incomplete = vflags&1 != 0
	v.violated = vflags&2 != 0
	v.generated = int64(r.Uvarint("ckpt vec generated"))
	v.dedupHits = int64(r.Uvarint("ckpt vec dedup"))
	v.keyBytes = int64(r.Uvarint("ckpt vec keybytes"))
	v.remote = int64(r.Uvarint("ckpt vec remote"))
	for s := 0; s < co.S; s++ {
		m := &v.mirror[s]
		for i, nk := 0, r.Count("ckpt shard len"); i < nk; i++ {
			k := string(r.Bytes("ckpt key"))
			m.index[k] = int64(len(m.keys))
			m.keys = append(m.keys, k)
		}
	}
	for i, ne := 0, r.Count("ckpt edges len"); i < ne; i++ {
		v.edges = append(v.edges, explore.Edge{
			From: int64(r.Uvarint("ckpt edge from")),
			To:   int64(r.Uvarint("ckpt edge to")),
		})
	}
	v.decisions = valency.ReadDecisions(r)
	v.queue = readItems(r, r.Count("ckpt frontier len"))
	co.vec = v
	return r.Err()
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
		return frame.Write(w, msgCheckpoint, payload)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: checkpoint: %v\n", err)
		return
	}
	co.rec.CheckpointsWritten++
}

// tryResume loads the checkpoint file if Options name one and it
// exists; reports whether the coordinator state was restored.  The file
// must be exactly one intact checkpoint frame (frame.ReadFile), and any
// mismatch — truncation, bit flips, trailing garbage, a different job —
// refuses to resume with a diagnosable error rather than silently
// exploring from a corrupt frontier.
func (co *coord) tryResume() (bool, error) {
	path := co.opts.CheckpointPath
	if path == "" {
		return false, nil
	}
	payload, err := frame.ReadFile(frame.OS{}, path, msgCheckpoint, nil)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil && !errors.Is(err, frame.ErrCorrupt) {
		return false, err
	}
	if err != nil {
		return false, fmt.Errorf("dist: checkpoint %s is corrupt or truncated (%w); refusing to resume — delete it to restart the job from scratch", filepath.Base(path), err)
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
