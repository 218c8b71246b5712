// Package valency is an exhaustive model checker for consensus protocols in
// the simulator world.  It explores every reachable configuration of a
// protocol — branching over the scheduler's choice of which process steps
// next and over every outcome of every coin flip, the adversarial reading
// of randomization used throughout the paper — and checks the two
// correctness conditions of §2:
//
//	Consistency: the DECIDE operations of all processes return the same value.
//	Validity:    every decided value is the input of some process.
//
// It also reports liveness defects (a process that halts without deciding)
// and whether undecided executions can run forever (inevitable for any
// randomized register protocol, per the paper's observation that
// non-terminating executions must exist but occur with small probability).
//
// For the small instances used in tests the reachable configuration space
// is finite, so a clean report is an exhaustive safety certificate: no
// schedule and no sequence of coin outcomes can produce disagreement.
//
// Options.Crash adds explicit crash-stop schedules — the simulator
// world's mirror of package fault — under which a clean report further
// certifies survivor-consistency: no crash pattern in the schedule, no
// interleaving and no coin outcome lets the surviving processes disagree
// or halt undecided.
//
// Engines.  Check runs the canonical serial depth-first engine, or with
// Options.Workers above 1 the shard-owned parallel engine; CheckSpill
// runs the disk-tiered one.  The two parallel tiers are one front end,
// checkSharded over explore.RunSharded; the disk tier plugs into it as
// a spillTier that spill.go builds.  Every engine — serial, both
// sharded tiers, the distributed workers (internal/dist) and Bivalence
// — expands configurations through one move rule, Options.Successors,
// every all-inputs sweep aggregates through one fold, Report.Fold, and
// every visited set is explore's key table: one per shard in the sharded
// tiers, one explore.KeySet in the serial engine, Bivalence and the
// distributed coordinator.  CheckAllInputs is one loop over the input
// vectors; with enough of them it fans whole vectors out over
// explore.Each instead.
package valency

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
)

// ViolationKind classifies what the checker found.
type ViolationKind uint8

const (
	// Consistency: two processes decided different values.
	Consistency ViolationKind = iota
	// Validity: a process decided a value that is no process's input.
	Validity
	// Stuck: a process halted without deciding.
	Stuck
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case Consistency:
		return "consistency"
	case Validity:
		return "validity"
	case Stuck:
		return "stuck"
	}
	return fmt.Sprintf("violationkind(%d)", uint8(k))
}

// Violation is a concrete counterexample: an execution from the initial
// configuration ending in the offending configuration.
type Violation struct {
	Kind   ViolationKind
	Trace  sim.Execution
	Detail string
}

// Error renders the violation; Violation is not an error type because a
// found violation is a successful analysis outcome for flawed protocols.
func (v *Violation) String() string {
	return fmt.Sprintf("%s violation: %s (trace of %d steps)", v.Kind, v.Detail, len(v.Trace))
}

// Options bound the exploration.
type Options struct {
	// MaxConfigs caps the number of distinct configurations explored;
	// beyond it the report is marked incomplete.  0 means 1<<20.
	MaxConfigs int
	// MemBudget caps the exploration's retained bytes: the visited-set
	// keys plus the frontier — the serial engine's DFS path, or the
	// parallel engines' pending configuration clones.  Beyond it the
	// report is marked incomplete, exactly like an exhausted MaxConfigs.
	// 0 means unlimited.  The distributed engine (internal/dist) ignores
	// it: beyond-RAM checking is the disk-tiered engine's job.
	//
	// Under the disk-tiered engine (CheckSpill / SpillDir) the budget
	// changes meaning: it sets the hot (RAM) share of the visited set,
	// and the exploration completes regardless — cold shards and deep
	// frontiers spill to disk instead of truncating the run.
	MemBudget int64
	// SpillDir enables the disk-tiered engine in CheckSpill /
	// CheckAllInputsSpill: visited-set shards beyond MemBudget evict to
	// sorted run files under this directory, deep frontiers spill to
	// segment files, and periodic checkpoint manifests make a killed run
	// resumable.  Ignored by Check/CheckAllInputs.
	SpillDir string
	// SpillResume continues a killed spill run from the last durable
	// checkpoint in SpillDir instead of starting fresh.
	SpillResume bool
	// SpillFS overrides the filesystem under the spill directory (nil
	// selects the real disk); the disk-fault soaks install
	// fault.DiskChaos here.
	SpillFS frame.FS
	// SpillCheckpointEvery is the number of admissions between checkpoint
	// manifests: 0 selects the default (32768), negative disables
	// checkpointing (tiering still applies, but a killed run cannot
	// resume).
	SpillCheckpointEvery int64
	// Workers sets the number of exploration workers.  0 or 1 selects
	// the serial depth-first engine (the canonical reference); values
	// above 1 select the parallel engine with that many workers; any
	// negative value means GOMAXPROCS.  Parallel and serial runs return
	// identical verdicts (see checkSharded).
	Workers int
	// Interrupt, when non-nil, is polled by the spill engine (CheckSpill
	// / CheckAllInputsSpill): the first true drains the run to a final
	// checkpoint manifest and returns ErrInterrupted — resume later with
	// SpillResume.  This is the graceful-shutdown seam the service
	// daemon's drain and the CLI signal handlers use.  Check and
	// CheckAllInputs ignore it: the in-RAM engines have no durable state
	// worth draining to.
	Interrupt func() bool
	// Crash is an explicit crash schedule, the simulator world's
	// mirror of package fault's crash-stop injection: Crash[pid] = k
	// means process pid crash-stops after taking k steps — it is never
	// scheduled again, and the checker certifies the survivors instead:
	// no surviving process halts undecided, and all decided values
	// (including any decided before a crash) agree and are valid.  A
	// negative entry, or a pid at or beyond len(Crash), never crashes.
	// Crash[pid] = 0 removes pid outright, so an all-but-one schedule of
	// zeros certifies solo termination under crashes exhaustively.
	Crash []int
	// NoSymmetry disables identical-process symmetry reduction, forcing
	// the engines to visit every process permutation of each
	// configuration separately.  Reduction is sound for every reported
	// field (see sim.Keyer), so this knob exists for differential testing,
	// not for correctness.
	NoSymmetry bool
}

// Budget returns the effective configuration budget (MaxConfigs with its
// default applied).  Exported for engine embedders such as the
// distributed cluster, whose coordinator enforces it once, globally,
// at admission.
func (o Options) Budget() int {
	if o.MaxConfigs <= 0 {
		return 1 << 20
	}
	return o.MaxConfigs
}

func (o Options) workers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

// Crashed reports whether pid has crash-stopped in c under the options'
// crash schedule.
func (o Options) Crashed(c *sim.Config, pid int) bool {
	return pid < len(o.Crash) && o.Crash[pid] >= 0 && c.Steps[pid] >= o.Crash[pid]
}

// Successors is the model's move rule (§2: the adversary picks which
// process steps next and the outcome of every coin flip), written once
// for every engine.  It steps c in place through each enabled move in
// canonical order — pid ascending, then flip outcome ascending,
// skipping crashed and halted processes — and calls fn(pid, outcome,
// ev) while c is the successor, undoing the step before the next move.
// The first fn that returns true stops the enumeration: Successors
// returns true with c restored.  A step the protocol cannot take stops
// it with an error worded as the serial checker's Stuck detail, and c
// is then left as StepInto left it.
func (o Options) Successors(c *sim.Config, fn func(pid int, outcome int64, ev sim.Event) bool) (bool, error) {
	for pid := 0; pid < c.N(); pid++ {
		if o.Crashed(c, pid) {
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
		for out := int64(0); out < outcomes; out++ {
			var u sim.StepUndo
			ev, err := c.StepInto(pid, out, &u)
			if err != nil {
				return false, fmt.Errorf("P%d cannot step: %w", pid, err)
			}
			stop := fn(pid, out, ev)
			c.UndoStep(&u)
			if stop {
				return true, nil
			}
		}
	}
	return false, nil
}

// SymmetryOn reports whether the engines canonicalize identical-process
// configurations.  Reduction is off under a crash schedule: Crash[pid]
// attaches a per-slot step allowance, so processes in equal states are
// no longer interchangeable and sorting slots would conflate distinct
// crash futures.  Exported so engine embedders configure their
// sim.Keyers identically to the local engines.
func (o Options) SymmetryOn() bool {
	return !o.NoSymmetry && len(o.Crash) == 0
}

// crashKeyTag separates the configuration encoding from the appended
// crash allowances in compact visited-set keys.  It cannot begin a slot
// (state tags are small) nor collide with varint bytes at this position,
// so keys with and without a crash suffix never alias.
const crashKeyTag = 0xFD

// AppendVisitKey appends the compact visited-set key for c: the
// (possibly canonical) configuration encoding, extended with each
// scheduled process's remaining steps to crash (clamped at 0: crashed is
// crashed, however far past the limit) when a crash schedule is active,
// because the allowance determines the process's future behavior.  Every engine that
// wants byte-identical dedup with the local ones (the distributed
// workers, most importantly) must key its visited sets with this.
func (o Options) AppendVisitKey(k *sim.Keyer, c *sim.Config, buf []byte) []byte {
	buf = k.AppendKey(c, buf)
	if len(o.Crash) == 0 {
		return buf
	}
	buf = append(buf, crashKeyTag)
	for pid, lim := range o.Crash {
		rem := -1
		if lim >= 0 {
			if rem = lim - c.Steps[pid]; rem < 0 {
				rem = 0
			}
		}
		buf = binary.AppendVarint(buf, int64(rem))
	}
	return buf
}

// Report is the result of exploring one input vector.
type Report struct {
	// Inputs is the input vector explored.
	Inputs []int64
	// Complete is true if the full reachable configuration space was
	// explored within the budget.
	Complete bool
	// Configs is the number of distinct configurations visited.
	Configs int
	// Violation is the first violation found, or nil.
	Violation *Violation
	// Decisions is the set of values decided in some reachable
	// configuration.
	Decisions map[int64]bool
	// Livelock is true if some cycle of configurations with undecided
	// processes is reachable: an adversary can postpone decision forever.
	Livelock bool
	// Stats carries the engine's throughput counters.  The serial engine
	// fills Workers (1), KeyBytes and Elapsed only; the parallel engine
	// fills everything.  Performance telemetry only: it is excluded from
	// verdict comparisons.
	Stats *Stats
}

// checker carries exploration state.
type checker struct {
	opts     Options
	visited  explore.KeySet // ids are admission (DFS preorder) indices
	colour   []uint8        // per id: 1 = on the DFS path (grey), 2 = done (black)
	path     sim.Execution
	rep      *Report
	valid    map[int64]bool // the run's input values; fixed per exploration
	keyer    sim.Keyer
	buf      []byte // visited-key scratch, reused across configurations
	keyBytes int64  // visited-set key bytes retained
}

// Check explores all executions of proto from the given inputs.
//
// It stops at the first violation (recorded in the report) or when the
// space or budget is exhausted.  With Options.Workers above 1 the
// parallel engine explores the space concurrently; the returned verdict
// is identical to a serial run's.
func Check(proto sim.Protocol, inputs []int64, opts Options) *Report {
	if opts.workers() > 1 {
		rep, err := checkSharded(proto, inputs, opts, nil)
		if err != nil {
			// In RAM the only error is a worker's recovered panic.  Check
			// predates error returns, so re-raise it as the panic it was;
			// CheckSpill returns it, and the service classifies it as a
			// permanent job failure.
			panic(err)
		}
		return rep
	}
	return checkSerial(proto, inputs, opts)
}

// checkerPool recycles serial-checker state across runs.  The hierarchy
// machine search drives hundreds of thousands of small CheckAllInputs
// runs through checkSerial; allocating a fresh visited set (plus valid
// map, key scratch and execution path) for every one of them made the
// search allocation-bound — flat across worker counts, because every
// worker fed the same collector.  A reset visited set keeps its slots
// and arena, so a pooled checker's steady-state cost is the exploration
// itself.
var checkerPool = sync.Pool{New: func() any {
	return &checker{valid: make(map[int64]bool)}
}}

// checkerPoolMaxVisited bounds the visited-set size a pooled checker may
// retain: one that just explored a huge space is dropped to the
// collector rather than pinning its storage for the pool's lifetime.
const checkerPoolMaxVisited = 1 << 15

func putChecker(ch *checker) {
	if ch.visited.Len() > checkerPoolMaxVisited {
		return
	}
	ch.visited.Reset()
	ch.colour = ch.colour[:0]
	clear(ch.valid)
	ch.path = ch.path[:0]
	ch.opts = Options{}
	ch.rep = nil
	ch.keyBytes = 0
	checkerPool.Put(ch)
}

// checkSerial is the canonical depth-first engine: its first violation
// (in lexicographic scheduler-choice order) defines the deterministic
// verdict the parallel engine reproduces.
func checkSerial(proto sim.Protocol, inputs []int64, opts Options) *Report {
	rep := &Report{
		Inputs:    append([]int64(nil), inputs...),
		Decisions: make(map[int64]bool),
		Complete:  true,
	}
	ch := checkerPool.Get().(*checker)
	ch.opts = opts
	ch.rep = rep
	for _, in := range inputs {
		ch.valid[in] = true
	}
	ch.keyer.Symmetry = opts.SymmetryOn()
	c := sim.NewConfig(proto, inputs)
	start := time.Now()
	ch.explore(c)
	rep.Configs = ch.visited.Len()
	if rep.Violation != nil {
		rep.Complete = false
	}
	rep.Stats = &Stats{Workers: 1, KeyBytes: ch.keyBytes, Elapsed: time.Since(start)}
	putChecker(ch)
	return rep
}

// unsafeAt is the first violation scanSafety found: its kind, the
// offending process and its decision, and for consistency the first
// decider and its decision.
type unsafeAt struct {
	kind          ViolationKind
	pid, first    int
	val, firstVal int64
}

func (u unsafeAt) detail() string {
	switch u.kind {
	case Stuck:
		return fmt.Sprintf("P%d halted without deciding", u.pid)
	case Validity:
		return fmt.Sprintf("P%d decided %d, which is no process's input", u.pid, u.val)
	default:
		return fmt.Sprintf("P%d decided %d but P%d decided %d", u.first, u.firstVal, u.pid, u.val)
	}
}

// scanSafety is every engine's per-configuration safety scan: it
// records c's decisions into dec, in process order up to the first
// violation, and reports that violation — a surviving process halted
// without deciding (stuck; a crashed process may die undecided), a
// decision that is no process's input (validity, against valid), or
// two different decisions (consistency).
func scanSafety(c *sim.Config, opts Options, valid, dec map[int64]bool) (unsafeAt, bool) {
	first, firstVal := -1, int64(0)
	for pid, d := range c.Decided {
		if !d {
			if c.Pending(pid).Kind == sim.ActHalt && !opts.Crashed(c, pid) {
				return unsafeAt{kind: Stuck, pid: pid}, true
			}
			continue
		}
		v := c.Decision[pid]
		dec[v] = true
		if !valid[v] {
			return unsafeAt{kind: Validity, pid: pid, val: v}, true
		}
		if first == -1 {
			first, firstVal = pid, v
		} else if v != firstVal {
			return unsafeAt{kind: Consistency, pid: pid, val: v, first: first, firstVal: firstVal}, true
		}
	}
	return unsafeAt{}, false
}

func (ch *checker) record(kind ViolationKind, detail string) {
	trace := make(sim.Execution, len(ch.path))
	copy(trace, ch.path)
	ch.rep.Violation = &Violation{Kind: kind, Trace: trace, Detail: detail}
}

// explore performs a depth-first traversal of the configuration graph.
// It returns true if exploration should stop (violation found or budget
// exhausted).
//
// The visited-set key is encoded into the checker's scratch buffer and
// looked up without admitting it, so a configuration the budget turns
// away is never counted; admission copies the key into the set's arena.
func (ch *checker) explore(c *sim.Config) bool {
	ch.buf = ch.opts.AppendVisitKey(&ch.keyer, c, ch.buf[:0])
	fp := sim.FingerprintBytes(ch.buf)
	if id, found := ch.visited.Lookup(fp, ch.buf); found {
		if ch.colour[id] == 1 {
			// Back edge: a cycle of live configurations.
			ch.rep.Livelock = true
		}
		return false
	}
	if ch.visited.Len() >= ch.opts.Budget() || ch.overMemBudget() {
		ch.rep.Complete = false
		return true
	}
	id, _ := ch.visited.Admit(fp, ch.buf)
	ch.keyBytes += int64(len(ch.buf))
	ch.colour = append(ch.colour, 1)
	stop := ch.expand(c)
	ch.colour[id] = 2
	return stop
}

// eventBytes is the retained cost of one DFS path entry, the serial
// engine's frontier analogue (the parallel engines count their pending
// configuration clones instead).
var eventBytes = int64(unsafe.Sizeof(sim.Event{}))

// overMemBudget reports whether the retained bytes — interned visited
// keys plus the DFS path — have exhausted the memory budget (MemBudget
// 0 = unlimited).
func (ch *checker) overMemBudget() bool {
	if ch.opts.MemBudget <= 0 {
		return false
	}
	return ch.keyBytes+int64(len(ch.path))*eventBytes >= ch.opts.MemBudget
}

// expand checks c for violations and branches over every move.  The
// whole DFS runs on one configuration: Successors steps it in place and
// undoes on backtrack instead of cloning per edge.
func (ch *checker) expand(c *sim.Config) bool {
	if u, bad := scanSafety(c, ch.opts, ch.valid, ch.rep.Decisions); bad {
		ch.record(u.kind, u.detail())
		return true
	}
	stop, err := ch.opts.Successors(c, func(_ int, _ int64, ev sim.Event) bool {
		ch.path = append(ch.path, ev)
		stop := ch.explore(c)
		// record copies the path at violation time, so unwinding is always safe.
		ch.path = ch.path[:len(ch.path)-1]
		return stop
	})
	if err != nil {
		// Unreachable for valid protocols; surface as a stuck violation.
		ch.record(Stuck, err.Error())
		return true
	}
	return stop
}

// CheckAllInputs runs Check over every binary input vector for n processes
// and returns the first report containing a violation, or the aggregate
// clean report (Complete iff all runs were complete).  One loop folds the
// reports in canonical vector order, so the result is the same at every
// worker count.  With Options.Workers above 1 and at least two vectors
// per worker, the serial engine checks the vectors ahead of the fold,
// fanned out over explore.Each; otherwise each vector runs on Check's
// engine in turn and the sweep stops at the first violating one.
// Stats.Elapsed is the sweep's wall clock.
func CheckAllInputs(proto sim.Protocol, n int, opts Options) *Report {
	workers, start := opts.workers(), time.Now()
	reports := make([]*Report, 1<<n) // nil: not checked yet
	if workers > 1 && len(reports) >= 2*workers {
		inner := opts
		inner.Workers = 0
		explore.Each(workers, len(reports), func(_, i int) bool {
			reports[i] = checkSerial(proto, InputVector(i, n), inner)
			return reports[i].Violation == nil
		})
	}
	agg := newAggregate(workers)
	// A violating report shares agg.Stats, so this stamps it too.
	defer func() { agg.Stats.Elapsed = time.Since(start) }()
	for bits, rep := range reports {
		if rep == nil {
			rep = Check(proto, InputVector(bits, n), opts)
		}
		if done := agg.Fold(rep); done != nil {
			return done
		}
	}
	return agg
}

// newAggregate returns an empty all-inputs aggregate for Fold.
func newAggregate(workers int) *Report {
	return &Report{Complete: true, Decisions: make(map[int64]bool), Stats: &Stats{Workers: workers}}
}

// Fold merges one input vector's report rep into the all-inputs
// aggregate r, the one fold every sweep shares (the local loops here and
// in spill.go, and the distributed coordinator's).  Configs add,
// Complete and Livelock combine, the decision sets unite, and rep.Stats
// folds into r.Stats (see Stats.fold).  A violating vector ends the
// sweep: Fold returns rep itself as the sweep's verdict, its Configs
// raised to the running total and its Stats replaced by the aggregate's.
// Otherwise it returns nil.
func (r *Report) Fold(rep *Report) *Report {
	r.Configs += rep.Configs
	r.Livelock = r.Livelock || rep.Livelock
	r.Complete = r.Complete && rep.Complete
	for v := range rep.Decisions {
		r.Decisions[v] = true
	}
	r.Stats.fold(rep.Stats)
	if rep.Violation == nil {
		return nil
	}
	rep.Configs = r.Configs
	rep.Stats = r.Stats
	return rep
}
