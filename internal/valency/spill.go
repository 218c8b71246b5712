package valency

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
)

// This file is the beyond-RAM checker: Check/CheckAllInputs on the
// disk-tiered exploration engine (explore.SpillConfig).  A run whose
// visited set outgrows Options.MemBudget evicts cold shards to sorted
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

// spillItem is one frontier configuration in the tiered engine: the
// live configuration plus the scheduler-choice sequence that reaches it
// from the initial configuration.  Only the schedule goes to disk.
type spillItem struct {
	c     *sim.Config
	sched []byte
}

// spillCheckpointDefault is the admissions-between-manifests default
// when Options.SpillCheckpointEvery is 0.
const spillCheckpointDefault = 1 << 15

// spillAux is the caller state carried inside each checkpoint manifest:
// the merged decision set and generated-successor count as of the cut.
// On resume it seeds the run's report so pre-cut decisions survive.
type spillAux struct {
	mu        sync.Mutex
	decisions map[int64]bool
	generated int64
}

func (a *spillAux) encode(ws []swork) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	vals := make([]int64, 0, len(a.decisions))
	for v := range a.decisions {
		vals = append(vals, v)
	}
	gen := a.generated
	for i := range ws {
		for v := range ws[i].decisions {
			if !a.decisions[v] {
				vals = append(vals, v)
			}
		}
		gen += ws[i].generated
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	b := binary.AppendUvarint(nil, uint64(len(vals)))
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return binary.AppendUvarint(b, uint64(gen))
}

func (a *spillAux) restore(p []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, k := binary.Uvarint(p)
	if k <= 0 {
		return errors.New("valency: corrupt spill aux decision count")
	}
	p = p[k:]
	dec := make(map[int64]bool, n)
	for i := uint64(0); i < n; i++ {
		v, k := binary.Varint(p)
		if k <= 0 {
			return errors.New("valency: corrupt spill aux decision value")
		}
		p = p[k:]
		dec[v] = true
	}
	gen, k := binary.Uvarint(p)
	if k <= 0 || k != len(p) {
		return errors.New("valency: corrupt spill aux generated count")
	}
	a.decisions = dec
	a.generated = int64(gen)
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
	rep, _, err := checkSpill(proto, inputs, opts)
	return rep, err
}

// checkSpill additionally reports the engine spill telemetry so the
// all-inputs driver can aggregate it across vectors.
func checkSpill(proto sim.Protocol, inputs []int64, opts Options) (*Report, *explore.SpillStats, error) {
	if opts.SpillDir == "" {
		return nil, nil, errors.New("valency: CheckSpill requires Options.SpillDir")
	}
	fs := opts.spillFS()
	if !opts.SpillResume {
		if f, err := fs.Open(filepath.Join(opts.SpillDir, explore.ManifestName)); err == nil {
			f.Close()
			return nil, nil, fmt.Errorf("valency: spill directory %s holds a previous run's checkpoint; resume it or use a clean directory", opts.SpillDir)
		}
	}

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
	aux := &spillAux{decisions: make(map[int64]bool)}

	sopts := explore.ShardedOptions[spillItem]{
		MaxItems: budget,
		Recycle: func(worker int, it spillItem) {
			if it.c == nil {
				return
			}
			if w := &ws[worker]; len(w.free) < sworkFreeCap {
				w.free = append(w.free, it.c)
			}
		},
		Spill: &explore.SpillConfig[spillItem]{
			Dir:             opts.SpillDir,
			FS:              opts.SpillFS,
			HotBytes:        opts.MemBudget,
			HotFrontier:     opts.spillHotFrontier(),
			CheckpointEvery: opts.spillCheckpointEvery(),
			Header:          spillHeader(proto, inputs, opts),
			Resume:          opts.SpillResume,
			Encode:          func(it spillItem, buf []byte) []byte { return append(buf, it.sched...) },
			Decode: func(p []byte) (spillItem, error) {
				sched := append([]byte(nil), p...)
				c := sim.NewConfig(proto, inputs)
				if err := c.ReplaySchedule(sched); err != nil {
					return spillItem{}, err
				}
				return spillItem{c: c, sched: sched}, nil
			},
			Aux:        func() []byte { return aux.encode(ws) },
			RestoreAux: aux.restore,
			Interrupt:  opts.Interrupt,
		},
	}

	initial := sim.NewConfig(proto, inputs)
	ws[0].buf = opts.AppendVisitKey(&ws[0].keyer, initial, ws[0].buf[:0])
	roots := []explore.ShardSeed[spillItem]{
		{FP: sim.FingerprintBytes(ws[0].buf), Key: ws[0].buf, Val: spillItem{c: initial}},
	}

	res := explore.RunSharded(workers, sopts, roots,
		func(ctx *explore.ShardCtx[spillItem], id int64, it spillItem) {
			w := &ws[ctx.Worker()]
			c := it.c
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
					var u sim.StepUndo
					if _, err := c.StepInto(pid, o, &u); err != nil {
						// Serial reports this as a Stuck violation; defer to it.
						violated.Store(true)
						ctx.Stop()
						return
					}
					w.generated++
					w.buf = opts.AppendVisitKey(&w.keyer, c, w.buf[:0])
					ctx.Emit(sim.FingerprintBytes(w.buf), w.buf, id, func() spillItem {
						sched := make([]byte, len(it.sched), len(it.sched)+2*binary.MaxVarintLen64)
						copy(sched, it.sched)
						return spillItem{
							c:     c.CloneInto(w.take()),
							sched: sim.AppendScheduleStep(sched, pid, o),
						}
					})
					c.UndoStep(&u)
				}
			}
		})

	if violated.Load() {
		// Deterministic witness: the canonical serial engine re-runs in
		// RAM.  MemBudget is cleared — in spill mode it bounds the hot
		// tier, not the exploration, and the serial witness must not
		// truncate before reaching the (reachable) violation.
		inner := opts
		inner.Workers = 0
		inner.MemBudget = 0
		inner.SpillDir, inner.SpillResume, inner.SpillFS = "", false, nil
		return checkSerial(proto, inputs, inner), &res.Stats.Spill, nil
	}

	rep := &Report{
		Inputs:    append([]int64(nil), inputs...),
		Decisions: make(map[int64]bool),
		Complete:  !res.Stats.Incomplete,
		Configs:   int(res.Stats.Admitted),
	}
	generated := aux.generated
	for v := range aux.decisions {
		rep.Decisions[v] = true
	}
	for i := range ws {
		generated += ws[i].generated
		for v := range ws[i].decisions {
			rep.Decisions[v] = true
		}
	}
	rep.Livelock = explore.HasCycle(int(res.Stats.Admitted), res.Edges)
	st := &res.Stats
	spill := st.Spill
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
		Checkpoints:     spill.Checkpoints,
		Spill:           &spill,
	}
	return rep, &spill, res.Err
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

	agg := &Report{Complete: vc.complete, Decisions: make(map[int64]bool)}
	agg.Configs = vc.configs
	agg.Livelock = vc.livelock
	for _, v := range vc.decisions {
		agg.Decisions[v] = true
	}
	aggStats := &Stats{Workers: opts.workers(), Spill: &explore.SpillStats{}}
	start := time.Now()

	for bits := vc.next; bits < 1<<n; bits++ {
		vopts := opts
		vopts.SpillDir = filepath.Join(opts.SpillDir, fmt.Sprintf("vec%04d", bits))
		rep, spill, err := checkSpill(proto, inputVector(bits, n), vopts)
		if spill != nil {
			aggStats.Spill.Flushes += spill.Flushes
			aggStats.Spill.Compactions += spill.Compactions
			aggStats.Spill.Lookups += spill.Lookups
			aggStats.Spill.LookupHits += spill.LookupHits
			aggStats.Spill.BlockReads += spill.BlockReads
			aggStats.Spill.BlockBytes += spill.BlockBytes
			aggStats.Spill.FrontierSpilled += spill.FrontierSpilled
			aggStats.Spill.FrontierLoaded += spill.FrontierLoaded
			aggStats.Spill.Checkpoints += spill.Checkpoints
			aggStats.Spill.Retries += spill.Retries
			aggStats.Spill.SoftFails += spill.SoftFails
			aggStats.Spill.Resumed = aggStats.Spill.Resumed || spill.Resumed
			aggStats.Checkpoints = aggStats.Spill.Checkpoints
		}
		if err != nil {
			agg.Complete = false
			agg.Stats = aggStats
			aggStats.Elapsed = time.Since(start)
			return agg, fmt.Errorf("valency: input vector %d: %w", bits, err)
		}
		agg.Configs += rep.Configs
		agg.Livelock = agg.Livelock || rep.Livelock
		agg.Complete = agg.Complete && rep.Complete
		for v := range rep.Decisions {
			agg.Decisions[v] = true
		}
		if rep.Stats != nil {
			aggStats.Generated += rep.Stats.Generated
			aggStats.DedupHits += rep.Stats.DedupHits
			aggStats.Steals += rep.Stats.Steals
			aggStats.KeyBytes += rep.Stats.KeyBytes
			aggStats.Collisions += rep.Stats.Collisions
			aggStats.HandoffBatches += rep.Stats.HandoffBatches
			aggStats.HandoffItems += rep.Stats.HandoffItems
		}
		if rep.Violation != nil {
			rep.Configs = agg.Configs
			rep.Stats = aggStats
			aggStats.Elapsed = time.Since(start)
			return rep, nil
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
			agg.Stats = aggStats
			aggStats.Elapsed = time.Since(start)
			return agg, fmt.Errorf("valency: write vector cursor: %w", err)
		}
	}
	fs.Remove(cursorPath) // completed sweep: nothing left to resume
	aggStats.Elapsed = time.Since(start)
	agg.Stats = aggStats
	return agg, nil
}
