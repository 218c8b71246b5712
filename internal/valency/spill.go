package valency

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sort"
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
	seen := make(map[int64]bool)
	var vals []int64
	var gen int64
	for i := range t.ws {
		for v := range t.ws[i].decisions {
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		gen += t.ws[i].generated
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	b := binary.AppendUvarint(nil, uint64(len(vals)))
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return binary.AppendUvarint(b, uint64(gen))
}

// restoreAux hands the decisions and successor count as of the cut to
// worker 0.  The engine calls it on resume, before any worker starts.
func (t *spillTier) restoreAux(p []byte) error {
	n, k := binary.Uvarint(p)
	if k <= 0 {
		return errors.New("valency: corrupt spill aux decision count")
	}
	p = p[k:]
	dec := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		v, k := binary.Varint(p)
		if k <= 0 {
			return errors.New("valency: corrupt spill aux decision value")
		}
		p = p[k:]
		dec = append(dec, v)
	}
	gen, k := binary.Uvarint(p)
	if k <= 0 || k != len(p) {
		return errors.New("valency: corrupt spill aux generated count")
	}
	w := &t.ws[0]
	for _, v := range dec {
		w.decisions[v] = true
	}
	w.generated = int64(gen)
	return nil
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

func (o Options) spillFS() frame.FS {
	if o.SpillFS != nil {
		return o.SpillFS
	}
	return frame.OS{}
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
		if f, err := opts.spillFS().Open(filepath.Join(opts.SpillDir, explore.ManifestName)); err == nil {
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
// done and the aggregate so far.  Distinct from every explore spill
// frame type and every dist wire type.
const frameVectorCursor byte = 0x56 // 'V'

// cursorRetry mirrors the engine's bounded retry+backoff for the
// sweep-level cursor I/O: a transient fault (the injector's, or a real
// blip) is absorbed; one that outlasts the attempts is unrecoverable.
func cursorRetry(fn func() error) error {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		time.Sleep(time.Duration(attempt+1) * 2 * time.Millisecond)
	}
	return err
}

// vectorCursorName is the cross-vector progress file in the spill root.
const vectorCursorName = "vectors.ckpt"

const vectorCursorVersion = 1

func allInputsHeader(proto sim.Protocol, n int, opts Options) []byte {
	return []byte(fmt.Sprintf("valency all-inputs v1 proto=%s n=%d budget=%d crash=%v sym=%v",
		proto.Name(), n, opts.Budget(), opts.Crash, opts.SymmetryOn()))
}

// vectorCursor is the durable cross-vector state: vectors [0, next) are
// fully explored and folded into the aggregate.
type vectorCursor struct {
	next      int
	configs   int
	complete  bool
	livelock  bool
	decisions []int64
}

func (vc *vectorCursor) encode(job uint64) []byte {
	b := binary.AppendUvarint(nil, vectorCursorVersion)
	b = binary.AppendUvarint(b, job)
	b = binary.AppendUvarint(b, uint64(vc.next))
	b = binary.AppendUvarint(b, uint64(vc.configs))
	var flags uint64
	if vc.complete {
		flags |= 1
	}
	if vc.livelock {
		flags |= 2
	}
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(len(vc.decisions)))
	for _, v := range vc.decisions {
		b = binary.AppendVarint(b, v)
	}
	return b
}

func decodeVectorCursor(p []byte, job uint64) (*vectorCursor, error) {
	r := struct {
		b    []byte
		fail error
	}{b: p}
	uv := func(what string) uint64 {
		if r.fail != nil {
			return 0
		}
		v, n := binary.Uvarint(r.b)
		if n <= 0 {
			r.fail = fmt.Errorf("valency: corrupt vector cursor %s", what)
			return 0
		}
		r.b = r.b[n:]
		return v
	}
	if v := uv("version"); r.fail == nil && v != vectorCursorVersion {
		return nil, fmt.Errorf("valency: vector cursor version %d, want %d", v, vectorCursorVersion)
	}
	if h := uv("job hash"); r.fail == nil && h != job {
		return nil, errors.New("valency: vector cursor was written by a different job; refusing to resume")
	}
	vc := &vectorCursor{next: int(uv("next")), configs: int(uv("configs"))}
	flags := uv("flags")
	vc.complete = flags&1 != 0
	vc.livelock = flags&2 != 0
	ndec := uv("decisions")
	for i := uint64(0); i < ndec && r.fail == nil; i++ {
		if v, n := binary.Varint(r.b); n > 0 {
			r.b = r.b[n:]
			vc.decisions = append(vc.decisions, v)
		} else {
			r.fail = errors.New("valency: corrupt vector cursor decision")
		}
	}
	if r.fail == nil && len(r.b) != 0 {
		r.fail = errors.New("valency: trailing bytes in vector cursor")
	}
	if r.fail != nil {
		return nil, r.fail
	}
	return vc, nil
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
	fs := opts.spillFS()
	job := frame.Fingerprint(allInputsHeader(proto, n, opts))
	cursorPath := filepath.Join(opts.SpillDir, vectorCursorName)
	if err := cursorRetry(func() error { return fs.MkdirAll(opts.SpillDir) }); err != nil {
		return nil, fmt.Errorf("valency: create spill dir: %w", err)
	}

	vc := &vectorCursor{complete: true}
	var found, trailing bool
	var typ byte
	var payload []byte
	rerr := cursorRetry(func() error {
		f, err := fs.Open(cursorPath)
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				found = false
				return nil // no cursor: fresh sweep
			}
			return err
		}
		found = true
		t, p, err := frame.Read(f)
		trailing = false
		if err == nil {
			var one [1]byte
			if cnt, _ := f.Read(one[:]); cnt != 0 {
				trailing = true
			}
		}
		f.Close()
		if err != nil {
			return err // transient read fault or real corruption: retry decides
		}
		typ, payload = t, p
		return nil
	})
	if found && !opts.SpillResume {
		return nil, fmt.Errorf("valency: spill directory %s holds an unfinished sweep; resume it or use a clean directory", opts.SpillDir)
	}
	if found {
		if rerr != nil || typ != frameVectorCursor || trailing {
			return nil, fmt.Errorf("valency: vector cursor is corrupt or truncated; refusing to resume — delete %s to restart from scratch", cursorPath)
		}
		var err error
		if vc, err = decodeVectorCursor(payload, job); err != nil {
			return nil, err
		}
	} else if rerr != nil {
		return nil, fmt.Errorf("valency: open vector cursor: %w", rerr)
	}

	agg := newAggregate(opts.workers())
	agg.Stats.Spill = &explore.SpillStats{}
	agg.Complete, agg.Configs, agg.Livelock = vc.complete, vc.configs, vc.livelock
	for _, v := range vc.decisions {
		agg.Decisions[v] = true
	}
	start := time.Now()
	defer func() { agg.Stats.Elapsed = time.Since(start) }() // the returned report shares agg.Stats

	for bits := vc.next; bits < 1<<n; bits++ {
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
		vc = &vectorCursor{
			next:     bits + 1,
			configs:  agg.Configs,
			complete: agg.Complete,
			livelock: agg.Livelock,
		}
		for v := range agg.Decisions {
			vc.decisions = append(vc.decisions, v)
		}
		sort.Slice(vc.decisions, func(i, j int) bool { return vc.decisions[i] < vc.decisions[j] })
		payload := vc.encode(job)
		if err := cursorRetry(func() error {
			return frame.WriteFileAtomic(fs, cursorPath, func(w io.Writer) error {
				return frame.Write(w, frameVectorCursor, payload)
			})
		}); err != nil {
			agg.Complete = false
			return agg, fmt.Errorf("valency: write vector cursor: %w", err)
		}
	}
	fs.Remove(cursorPath) // completed sweep: nothing left to resume
	return agg, nil
}
