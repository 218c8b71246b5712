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
package valency

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"
	"unsafe"

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
	// 0 means unlimited.  The distributed coordinator enforces the same
	// cap on its shard mirrors and additionally applies dispatch
	// backpressure as the budget approaches (see internal/dist).
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
// distributed cluster, which enforce it per worker and globally.
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
	visited  map[string]uint8 // 1 = on stack (grey), 2 = done (black)
	path     sim.Execution
	rep      *Report
	valid    map[int64]bool // the run's input values; fixed per exploration
	keyer    sim.Keyer
	buf      []byte // visited-key scratch, reused across configurations
	keyBytes int64  // visited-map key bytes retained
}

// Check explores all executions of proto from the given inputs.
//
// It stops at the first violation (recorded in the report) or when the
// space or budget is exhausted.  With Options.Workers above 1 the
// parallel engine explores the space concurrently; the returned verdict
// is identical to a serial run's.
func Check(proto sim.Protocol, inputs []int64, opts Options) *Report {
	if opts.workers() > 1 {
		return checkSharded(proto, inputs, opts)
	}
	return checkSerial(proto, inputs, opts)
}

// checkerPool recycles serial-checker state across runs.  The hierarchy
// machine search drives hundreds of thousands of small CheckAllInputs
// runs through checkSerial; allocating a fresh visited map (plus valid
// map, key scratch and execution path) for every one of them made the
// search allocation-bound — flat across worker counts, because every
// worker fed the same collector.  Cleared maps keep their buckets, so a
// pooled checker's steady-state cost is the exploration itself.
var checkerPool = sync.Pool{New: func() any {
	return &checker{
		visited: make(map[string]uint8),
		valid:   make(map[int64]bool),
	}
}}

// checkerPoolMaxVisited bounds the visited-map size a pooled checker may
// retain: one that just explored a huge space is dropped to the
// collector rather than pinning its buckets for the pool's lifetime.
const checkerPoolMaxVisited = 1 << 15

func putChecker(ch *checker) {
	if len(ch.visited) > checkerPoolMaxVisited {
		return
	}
	clear(ch.visited)
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
	rep.Configs = len(ch.visited)
	if rep.Violation != nil {
		rep.Complete = false
	}
	rep.Stats = &Stats{Workers: 1, KeyBytes: ch.keyBytes, Elapsed: time.Since(start)}
	putChecker(ch)
	return rep
}

// violationAt inspects a configuration for safety violations and records
// the first one found, returning true if exploration should stop.
func (ch *checker) violationAt(c *sim.Config) bool {
	firstPid, firstVal := -1, int64(0)
	for pid, d := range c.Decided {
		if !d {
			// A surviving halted process that never decided is stuck; a
			// crashed process is permitted to die undecided.
			if c.Pending(pid).Kind == sim.ActHalt && !ch.opts.Crashed(c, pid) {
				ch.record(Stuck, fmt.Sprintf("P%d halted without deciding", pid))
				return true
			}
			continue
		}
		v := c.Decision[pid]
		ch.rep.Decisions[v] = true
		if !ch.valid[v] {
			ch.record(Validity, fmt.Sprintf("P%d decided %d, which is no process's input", pid, v))
			return true
		}
		if firstPid == -1 {
			firstPid, firstVal = pid, v
		} else if v != firstVal {
			ch.record(Consistency,
				fmt.Sprintf("P%d decided %d but P%d decided %d", firstPid, firstVal, pid, v))
			return true
		}
	}
	return false
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
// The visited-set key is encoded into the checker's scratch buffer: the
// grey-check lookup via string(ch.buf) costs no allocation, and the key
// string is materialized only when the configuration turns out to be new.
func (ch *checker) explore(c *sim.Config) bool {
	ch.buf = ch.opts.AppendVisitKey(&ch.keyer, c, ch.buf[:0])
	switch ch.visited[string(ch.buf)] {
	case 1:
		// Back edge: a cycle of live configurations.
		ch.rep.Livelock = true
		return false
	case 2:
		return false
	}
	if len(ch.visited) >= ch.opts.Budget() || ch.overMemBudget() {
		ch.rep.Complete = false
		return true
	}
	key := string(ch.buf) // the single retained copy of this key
	ch.keyBytes += int64(len(key))
	ch.visited[key] = 1
	stop := ch.expand(c)
	ch.visited[key] = 2
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

// expand checks c for violations and branches over every scheduler and
// coin choice.
func (ch *checker) expand(c *sim.Config) bool {
	if ch.violationAt(c) {
		return true
	}
	for pid := 0; pid < c.N(); pid++ {
		if ch.opts.Crashed(c, pid) {
			continue // crash-stop: never scheduled again
		}
		a := c.Pending(pid)
		switch a.Kind {
		case sim.ActHalt:
			continue
		case sim.ActFlip:
			for o := int64(0); o < a.Sides; o++ {
				if ch.step(c, pid, o) {
					return true
				}
			}
		default:
			if ch.step(c, pid, 0) {
				return true
			}
		}
	}
	return false
}

// step branches into the configuration reached by letting pid take its
// pending step with the given flip outcome.  It steps copy-on-write:
// it mutates c in place and undoes on backtrack, so the whole DFS runs
// on one configuration instead of cloning per edge.
func (ch *checker) step(c *sim.Config, pid int, outcome int64) bool {
	var u sim.StepUndo
	ev, err := c.StepInto(pid, outcome, &u)
	if err != nil {
		// Unreachable for valid protocols; surface as a stuck violation.
		ch.record(Stuck, fmt.Sprintf("P%d cannot step: %v", pid, err))
		return true
	}
	ch.path = append(ch.path, ev)
	stop := ch.explore(c)
	// record copies the path at violation time, so unwinding is always safe.
	ch.path = ch.path[:len(ch.path)-1]
	c.UndoStep(&u)
	return stop
}

// CheckAllInputs runs Check over every binary input vector for n processes
// and returns the first report containing a violation, or the aggregate
// clean report (Complete iff all runs were complete).  With
// Options.Workers above 1 the input vectors themselves are fanned out
// across the worker pool.
func CheckAllInputs(proto sim.Protocol, n int, opts Options) *Report {
	if opts.workers() > 1 {
		return checkAllInputsParallel(proto, n, opts)
	}
	agg := &Report{Complete: true, Decisions: make(map[int64]bool)}
	aggStats := &Stats{Workers: 1}
	for bits := 0; bits < 1<<n; bits++ {
		rep := checkSerial(proto, inputVector(bits, n), opts)
		agg.Configs += rep.Configs
		agg.Livelock = agg.Livelock || rep.Livelock
		agg.Complete = agg.Complete && rep.Complete
		for v := range rep.Decisions {
			agg.Decisions[v] = true
		}
		if rep.Stats != nil {
			aggStats.KeyBytes += rep.Stats.KeyBytes
			aggStats.Elapsed += rep.Stats.Elapsed
		}
		if rep.Violation != nil {
			rep.Configs = agg.Configs
			return rep
		}
	}
	agg.Stats = aggStats
	return agg
}
