package valency

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
)

// This file is the beyond-RAM checker: Check/CheckAllInputs on the
// disk-tiered exploration engine (explore.SpillConfig), driven by the
// same front end as the RAM tier (checkSharded with a spillTier); what
// lives here is the tier's setup, its checkpointed caller state and the
// resumable all-inputs sweep.  A run whose visited set outgrows Options.MemBudget evicts cold shards to sorted
// run files instead of truncating, deep frontiers spill to segment
// files as compact schedule encodings (a configuration costs a few
// bytes on disk — it is re-materialized by replaying its scheduler
// choices from the initial configuration), and periodic checkpoint
// manifests make a killed run resumable with Options.SpillResume.
//
// The verdict contract is the sharded engine's, extended to disk: a
// complete run — even one interrupted and resumed — admits exactly the
// reachable canonical key set, so Configs, Decisions and Livelock are
// independent of worker count, spill timing and kill points.  An
// unrecoverable disk fault degrades the run to the honest "incomplete"
// verdict with the fault attached; it can never falsify a verdict.

// ErrInterrupted reports a spill run stopped by Options.Interrupt with
// its state checkpointed, not lost; it aliases the engine's sentinel so
// callers can errors.Is at either layer.
var ErrInterrupted = explore.ErrInterrupted

// ErrCannotResume is matched by every refusal to resume a spill run or
// an all-inputs sweep from a checkpoint this build cannot use: a
// corrupt manifest, run or vector cursor, another format version,
// another job or worker count.  It aliases the resume record's sentinel.
var ErrCannotResume = frame.ErrCannotResume

// spillCheckpointDefault is the admissions-between-manifests default
// when Options.SpillCheckpointEvery is 0.
const spillCheckpointDefault = 1 << 15

// spillTier is the disk tier's share of checkSharded: the engine's
// spill configuration, plus the run's workers, whose decision sets and
// successor counts every checkpoint manifest carries as its caller
// state, so a resumed run's report keeps what was found before the cut.
type spillTier struct {
	cfg explore.SpillConfig[*shardItem]
	ws  []swork // the run's workers, set by checkSharded
}

// newSpillTier sets up the disk tier for one run: MemBudget sizes the
// hot tier, and a frontier item goes to disk as its schedule, which
// Decode replays from the initial configuration.
func newSpillTier(proto sim.Protocol, inputs []int64, opts Options) *spillTier {
	t := &spillTier{}
	t.cfg = explore.SpillConfig[*shardItem]{
		Dir:             opts.SpillDir,
		FS:              opts.SpillFS,
		HotBytes:        opts.MemBudget,
		HotFrontier:     opts.spillHotFrontier(),
		CheckpointEvery: opts.spillCheckpointEvery(),
		Header:          spillHeader(proto, inputs, opts),
		Resume:          opts.SpillResume,
		Encode:          func(it *shardItem, buf []byte) []byte { return append(buf, it.sched...) },
		Decode: func(p []byte) (*shardItem, error) {
			it := &shardItem{Config: *sim.NewConfig(proto, inputs), sched: append([]byte(nil), p...)}
			if err := it.ReplaySchedule(it.sched); err != nil {
				return nil, err
			}
			return it, nil
		},
		Aux:        t.encodeAux,
		RestoreAux: t.restoreAux,
		Interrupt:  opts.Interrupt,
	}
	return t
}

// encodeAux serializes the workers' merged decision set and successor
// count.  The engine calls it at a checkpoint barrier, with every
// worker parked.
func (t *spillTier) encodeAux() []byte {
	merged := make(map[int64]bool)
	var gen int64
	for i := range t.ws {
		for v := range t.ws[i].decisions {
			merged[v] = true
		}
		gen += t.ws[i].generated
	}
	return binary.AppendUvarint(AppendDecisions(nil, merged), uint64(gen))
}

// restoreAux hands the decisions and successor count as of the cut to
// worker 0.  The engine calls it on resume, before any worker starts.
func (t *spillTier) restoreAux(p []byte) error {
	r := frame.NewReader(p)
	dec := ReadDecisions(r)
	gen := int64(r.Uvarint("aux generated"))
	if err := r.Err(); err != nil {
		return err
	}
	t.ws[0].decisions, t.ws[0].generated = dec, gen
	return nil
}

// AppendDecisions appends a decision set in its durable form: a count,
// then each value as a varint, in increasing order so one set has one
// encoding.  Every record that carries a decision set uses it — the
// spill manifest's caller state, the vector cursor and the dist
// checkpoint.
func AppendDecisions(b []byte, d map[int64]bool) []byte {
	vals := make([]int64, 0, len(d))
	for v := range d {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// ReadDecisions decodes a decision set written by AppendDecisions; a
// failure is left in r.
func ReadDecisions(r *frame.Reader) map[int64]bool {
	n := r.Count("decisions len")
	d := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		d[r.Varint("decision")] = true
	}
	return d
}

// AppendSweep appends an all-inputs sweep's durable aggregate: vectors
// [0, next) are fully explored and folded into agg, whose verdict
// fields — configurations, complete|livelock<<1, decisions — follow.
// The vector cursor and the cluster coordinator's snapshot both carry
// it.
func AppendSweep(b []byte, next int, agg *Report) []byte {
	b = binary.AppendUvarint(b, uint64(next))
	b = binary.AppendUvarint(b, uint64(agg.Configs))
	var flags uint64
	if agg.Complete {
		flags |= 1
	}
	if agg.Livelock {
		flags |= 2
	}
	b = binary.AppendUvarint(b, flags)
	return AppendDecisions(b, agg.Decisions)
}

// ReadSweep restores an aggregate written by AppendSweep into agg and
// returns the vector to resume at; a failure is left in r.
func ReadSweep(r *frame.Reader, agg *Report) int {
	next := int(r.Uvarint("next vector"))
	agg.Configs = int(r.Uvarint("configs"))
	flags := r.Uvarint("flags")
	agg.Complete, agg.Livelock = flags&1 != 0, flags&2 != 0
	agg.Decisions = ReadDecisions(r)
	return next
}

// spillHeader identifies the exploration universe of one (protocol,
// inputs, options) job: a manifest written under a different header
// refuses to resume.  MemBudget is deliberately excluded — it moves the
// RAM/disk boundary, not the reachable space, so a resume may raise or
// lower it.
func spillHeader(proto sim.Protocol, inputs []int64, opts Options) []byte {
	return []byte(fmt.Sprintf("valency spill v1 proto=%s inputs=%v budget=%d crash=%v sym=%v",
		proto.Name(), inputs, opts.Budget(), opts.Crash, opts.SymmetryOn()))
}

// spillHotFrontier bounds the in-RAM frontier of a spill run by the
// same budget that bounds the visited set's hot tier: every pending
// item retains a materialized sim.Config, so the per-worker threshold
// beyond which the frontier's cold half spills to a segment file scales
// with MemBudget (one slot per ~128 budget bytes), clamped so tiny
// budgets still batch useful work and large ones keep the engine
// default.  No budget, no clamp: 0 selects the engine default.
func (o Options) spillHotFrontier() int {
	if o.MemBudget <= 0 {
		return 0
	}
	slots := o.MemBudget / 128
	if slots < 64 {
		return 64
	}
	if slots > 8192 {
		return 8192
	}
	return int(slots)
}

func (o Options) spillCheckpointEvery() int64 {
	if o.SpillCheckpointEvery == 0 {
		return spillCheckpointDefault
	}
	if o.SpillCheckpointEvery < 0 {
		return 0 // checkpointing disabled; spill files are still tiered
	}
	return o.SpillCheckpointEvery
}

// CheckSpill explores all executions of proto from the given inputs on
// the disk-tiered engine rooted at Options.SpillDir.  Unlike Check,
// Options.MemBudget does not truncate the exploration: it sets the hot
// (RAM) share of the visited set, and everything beyond it lives in
// spill files — a run that Check would mark incomplete under the same
// budget completes here with the identical configuration count.
//
// The returned error is non-nil only for an unusable spill setup or an
// unrecoverable disk fault; the accompanying report is then honestly
// incomplete.  A found violation is a successful analysis outcome and
// returns a nil error.
func CheckSpill(proto sim.Protocol, inputs []int64, opts Options) (*Report, error) {
	if opts.SpillDir == "" {
		return nil, errors.New("valency: CheckSpill requires Options.SpillDir")
	}
	if !opts.SpillResume {
		if f, err := frame.OrOS(opts.SpillFS).Open(filepath.Join(opts.SpillDir, explore.ManifestName)); err == nil {
			f.Close()
			return nil, fmt.Errorf("valency: spill directory %s holds a previous run's checkpoint; resume it or use a clean directory", opts.SpillDir)
		}
	}
	disk := newSpillTier(proto, inputs, opts)
	// The budget now sizes the hot tier; left in opts, it would also
	// truncate the run and the serial witness re-run.
	opts.MemBudget = 0
	return checkSharded(proto, inputs, opts, disk)
}

// Cursor frame type for CheckAllInputsSpill: which input vectors are
// done and the aggregate so far.  The cursor is a frame.Record, and its
// disk operations retry under frame.Retry, counted in Stats.Spill.Retries
// with the engine's.  Distinct from every explore spill frame type and
// every dist wire type.
const frameVectorCursor byte = 0x56 // 'V'

// vectorCursorName is the cross-vector progress file in the spill root.
const vectorCursorName = "vectors.ckpt"

const vectorCursorVersion = 1

func allInputsHeader(proto sim.Protocol, n int, opts Options) []byte {
	return []byte(fmt.Sprintf("valency all-inputs v1 proto=%s n=%d budget=%d crash=%v sym=%v",
		proto.Name(), n, opts.Budget(), opts.Crash, opts.SymmetryOn()))
}

// CheckAllInputsSpill runs CheckSpill over every binary input vector for
// n processes, each in its own subdirectory of Options.SpillDir, with a
// durable cross-vector cursor: a killed sweep resumes at the vector it
// was exploring (mid-vector, from that vector's manifest) instead of
// starting over.  Completed sweeps remove their spill state.
func CheckAllInputsSpill(proto sim.Protocol, n int, opts Options) (*Report, error) {
	if opts.SpillDir == "" {
		return nil, errors.New("valency: CheckAllInputsSpill requires Options.SpillDir")
	}
	fs := frame.OrOS(opts.SpillFS)
	var retries atomic.Int64
	cursor := frame.Record{
		FS: fs, Path: filepath.Join(opts.SpillDir, vectorCursorName), Type: frameVectorCursor,
		Version: vectorCursorVersion, Job: frame.Fingerprint(allInputsHeader(proto, n, opts)),
		Name: "valency: vector cursor", Retries: &retries,
	}
	if err := frame.Retry(&retries, func() error { return fs.MkdirAll(opts.SpillDir) }); err != nil {
		return nil, fmt.Errorf("valency: create spill dir: %w", err)
	}

	agg := newAggregate(opts.workers())
	agg.Stats.Spill = &explore.SpillStats{}
	next := 0
	found, err := cursor.Read(func(r *frame.Reader) error { next = ReadSweep(r, agg); return nil })
	switch {
	case found && !opts.SpillResume:
		return nil, fmt.Errorf("valency: spill directory %s holds an unfinished sweep; resume it or use a clean directory", opts.SpillDir)
	case err != nil:
		return nil, err
	}
	start := time.Now()
	defer func() { // the returned report shares agg.Stats
		agg.Stats.Elapsed = time.Since(start)
		agg.Stats.Spill.Retries += retries.Load()
	}()

	for bits := next; bits < 1<<n; bits++ {
		vopts := opts
		vopts.SpillDir = filepath.Join(opts.SpillDir, fmt.Sprintf("vec%04d", bits))
		rep, err := CheckSpill(proto, InputVector(bits, n), vopts)
		if err != nil {
			if rep != nil {
				agg.Stats.fold(rep.Stats)
			}
			agg.Complete = false
			return agg, fmt.Errorf("valency: input vector %d: %w", bits, err)
		}
		if done := agg.Fold(rep); done != nil {
			return done, nil
		}
		fs.Remove(vopts.SpillDir) // completed vectors leave an empty subdir
		// Fold the finished vector into the durable cursor before moving
		// on; a crash between vectors then resumes exactly here.
		if err := cursor.Write(func(b []byte) []byte { return AppendSweep(b, bits+1, agg) }); err != nil {
			agg.Complete = false
			return agg, fmt.Errorf("valency: write vector cursor: %w", err)
		}
	}
	cursor.Remove() // completed sweep: nothing left to resume
	return agg, nil
}
