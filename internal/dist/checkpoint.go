package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

// Checkpoint format: one resume record (frame.Record: the same
// [len][type][payload][checksum] envelope as the wire, type
// msgCheckpoint, its payload led by the record's version and job hash)
// holding the coordinator's entire authoritative state:
//
//	job hash — fingerprint of the encoded job+options, so a snapshot
//	          can only resume the job that wrote it
//	aggregate so far (valency.AppendSweep: vector cursor, configs,
//	          complete|livelock, decisions; then the harvested counters)
//	current vector: inputs, visited keys in admission order (ids are
//	          positional, so no ids are stored), edges,
//	          decisions, flags, counters, and the outstanding frontier —
//	          queued items plus in-flight batches flattened back into
//	          the queue, since an unacknowledged batch is
//	          indistinguishable from an undispatched one after restart
//
// A crash mid-snapshot leaves the previous snapshot intact.  Re-running
// a frontier item that had in fact been processed before the snapshot is
// harmless: emits dedup against the visited set, edges and decisions
// are idempotent, only telemetry counters inflate.
const msgCheckpoint byte = 0x43

// Version 2 added the vector's violated flag (a checkpoint is written
// the moment a violation is seen, so a killed coordinator re-reports
// instead of re-exploring) and the full recovery counter block.
// Version 3 stores the visited set as one key list instead of one per
// fingerprint shard, and drops the shard census and two retired
// recovery counters; older snapshots are refused by version.
const checkpointVersion = 3

// snapshot is the checkpoint's resume record.  Its job hash
// fingerprints everything that determines the exploration universe; a
// checkpoint from a different protocol, vector mode, budget or crash
// schedule must not resume.
func (co *coord) snapshot() frame.Record {
	b := jobMsg{
		Spec:       co.job.Spec,
		Inputs:     co.job.Inputs,
		NoSymmetry: co.opts.Valency.NoSymmetry,
		Crash:      co.opts.Valency.Crash,
	}.encode()
	b = binary.AppendUvarint(b, uint64(co.opts.Valency.Budget()))
	if co.job.AllInputs {
		b = append(b, 1)
	}
	return frame.Record{
		FS: co.opts.Valency.SpillFS, Path: co.opts.CheckpointPath, Type: msgCheckpoint,
		Version: checkpointVersion, Job: sim.FingerprintBytes(b), Name: "dist: checkpoint",
	}
}

// appendCheckpoint appends the coordinator state to the record header.
func (co *coord) appendCheckpoint(b []byte) []byte {
	// Aggregate.
	b = valency.AppendSweep(b, co.vecIdx, co.agg)
	b = binary.AppendUvarint(b, uint64(co.agg.Stats.Generated))
	b = binary.AppendUvarint(b, uint64(co.agg.Stats.DedupHits))
	b = binary.AppendUvarint(b, uint64(co.agg.Stats.KeyBytes))
	b = binary.AppendUvarint(b, uint64(co.agg.Stats.RemoteItems))
	b = binary.AppendUvarint(b, uint64(co.batches))
	b = binary.AppendUvarint(b, uint64(co.rec.Reconnects))
	b = binary.AppendUvarint(b, uint64(co.rec.WorkerDeaths))
	b = binary.AppendUvarint(b, uint64(co.rec.RequeuedBatches))
	b = binary.AppendUvarint(b, uint64(co.rec.CheckpointResumes))
	b = binary.AppendUvarint(b, uint64(co.rec.CheckpointsWritten))

	// Current vector.
	v := co.vec
	b = binary.AppendUvarint(b, uint64(len(v.inputs)))
	for _, in := range v.inputs {
		b = binary.AppendVarint(b, in)
	}
	b = binary.AppendUvarint(b, boolBit(v.incomplete)|boolBit(v.violated)<<1)
	b = binary.AppendUvarint(b, uint64(v.generated))
	b = binary.AppendUvarint(b, uint64(v.dedupHits))
	b = binary.AppendUvarint(b, uint64(v.keyBytes))
	b = binary.AppendUvarint(b, uint64(v.remote))
	b = binary.AppendUvarint(b, uint64(v.keys.Len()))
	v.keys.Keys(func(k []byte) { b = putBytes(b, k) })
	b = binary.AppendUvarint(b, uint64(len(v.edges)))
	for _, e := range v.edges {
		b = binary.AppendUvarint(b, uint64(e.From))
		b = binary.AppendUvarint(b, uint64(e.To))
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
	b = binary.AppendUvarint(b, uint64(n))
	b = putItems(b, v.queue)
	for _, id := range ids {
		b = putItems(b, co.inflight[id].items)
	}
	return b
}

// decodeCheckpoint restores the coordinator state from a record body.
// Its errors are refusals; frame.Record.Read names the record.
func (co *coord) decodeCheckpoint(r *frame.Reader) error {
	co.vecIdx = valency.ReadSweep(r, co.agg)
	co.agg.Stats.Generated = int64(r.Uvarint("ckpt generated"))
	co.agg.Stats.DedupHits = int64(r.Uvarint("ckpt dedup"))
	co.agg.Stats.KeyBytes = int64(r.Uvarint("ckpt keybytes"))
	co.agg.Stats.RemoteItems = int64(r.Uvarint("ckpt remote"))
	co.batches = int64(r.Uvarint("ckpt batches"))
	co.rec.Reconnects = int64(r.Uvarint("ckpt reconnects"))
	co.rec.WorkerDeaths = int64(r.Uvarint("ckpt worker deaths"))
	co.rec.RequeuedBatches = int64(r.Uvarint("ckpt requeued"))
	co.rec.CheckpointResumes = int64(r.Uvarint("ckpt resumes"))
	co.rec.CheckpointsWritten = int64(r.Uvarint("ckpt checkpoints"))

	ni := r.Count("ckpt inputs len")
	inputs := make([]int64, 0, ni)
	for i := 0; i < ni; i++ {
		inputs = append(inputs, r.Varint("ckpt input"))
	}
	v := newVectorState(inputs)
	vflags := r.Uvarint("ckpt vector flags")
	v.incomplete = vflags&1 != 0
	v.violated = vflags&2 != 0
	v.generated = int64(r.Uvarint("ckpt vec generated"))
	v.dedupHits = int64(r.Uvarint("ckpt vec dedup"))
	v.keyBytes = int64(r.Uvarint("ckpt vec keybytes"))
	v.remote = int64(r.Uvarint("ckpt vec remote"))
	for i, nk := 0, r.Count("ckpt keys len"); i < nk; i++ {
		k := r.Bytes("ckpt key")
		if _, fresh := v.keys.Admit(sim.FingerprintBytes(k), k); !fresh && r.Err() == nil {
			return errors.New("lists a visited key twice")
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
	if err := r.Err(); err != nil {
		return err
	}
	// Ids index HasCycle's adjacency: one past the visited set would
	// crash the resumed run instead of refusing the file.
	n := int64(v.keys.Len())
	for _, e := range v.edges {
		if !validID(e.From, n) || !validID(e.To, n) {
			return fmt.Errorf("edge %d→%d outside its %d visited keys", e.From, e.To, n)
		}
	}
	for _, it := range v.queue {
		if !validID(it.id, n) {
			return fmt.Errorf("frontier item %d outside its %d visited keys", it.id, n)
		}
	}
	co.vec = v
	return nil
}

// validID reports whether id names one of n admitted configurations.
func validID(id, n int64) bool { return id >= 0 && id < n }

// checkpointNow snapshots atomically and durably (frame.Record.Write).
// Failures are reported on stderr but never abort the run — a missed
// snapshot only costs re-exploration after a crash.
func (co *coord) checkpointNow() {
	if co.opts.CheckpointPath == "" || co.vec == nil {
		return
	}
	if err := co.snapshot().Write(co.appendCheckpoint); err != nil {
		fmt.Fprintf(os.Stderr, "dist: checkpoint: %v\n", err)
		return
	}
	co.rec.CheckpointsWritten++
}

// tryResume loads the checkpoint file if Options name one and it
// exists; reports whether the coordinator state was restored.  A file
// it cannot use is refused (frame.ErrCannotResume), never explored
// from.
func (co *coord) tryResume() (bool, error) {
	if co.opts.CheckpointPath == "" {
		return false, nil
	}
	found, err := co.snapshot().Read(co.decodeCheckpoint)
	if !found || err != nil {
		return false, err
	}
	co.rec.CheckpointResumes++
	return true, nil
}

func (co *coord) removeCheckpoint() {
	if co.opts.CheckpointPath != "" {
		co.snapshot().Remove()
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
