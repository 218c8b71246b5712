// Package fault is a deterministic, replayable chaos injector and
// wait-freedom certifier for the live (goroutine-world) protocols.
//
// Wait-freedom — the property every protocol in the paper must satisfy,
// and whose weakest form, nondeterministic solo termination, drives the
// §3 lower bounds — is a robustness guarantee: every surviving process
// finishes in a bounded number of its *own* steps no matter how many
// others crash or stall.  The live world is normally exercised only on
// fault-free, fairly-scheduled runs; this package supplies the missing
// adversary.  A Plan, derived deterministically from a seed, schedules
// faults at shared-memory operation boundaries:
//
//   - Crash — crash-stop: the process takes no further steps, ever;
//   - Stall — the adversary pauses the process for a bounded interval;
//   - Freeze — an unbounded pause: the process resumes only after every
//     other process has decided or crashed (the classic adversarial
//     "park one process mid-operation" schedule);
//   - Storm — a burst of scheduler yields, perturbing goroutine order.
//
// An Injector realizes a plan through the injection points threaded
// through the stack: consensus.Protocol.SetStepHook (protocol level),
// runtime.Recorder.SetHook (object level: it fires before every Do of a
// recorded runtime.Object) and coin.HookedPosition (coin level).  Run
// executes a protocol under injection with a progress watchdog —
// per-process step budgets and a wall-clock deadline — and certifies the wait-freedom contract on the survivors: all of
// them decide, on a common value, that is some process's input, within
// budget.  Any failing run reproduces from its plan (seed included in
// the violation), because the fault schedule is a pure function of the
// plan and fires at deterministic per-process operation counts.
package fault

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Kind discriminates the injected fault kinds.
type Kind uint8

const (
	// Crash is crash-stop: the process takes no further steps, ever.
	Crash Kind = iota
	// Stall pauses the process for Event.Stall of wall-clock time.
	Stall
	// Freeze pauses the process until every other process has decided or
	// crashed, then resumes it — an unbounded adversarial pause.
	Freeze
	// Storm yields the processor Event.Yields times in a burst.
	Storm
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Freeze:
		return "freeze"
	case Storm:
		return "storm"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event schedules one fault: when Proc has completed AtOp shared-memory
// operations, the fault fires at its next injection point.
type Event struct {
	Proc int
	Kind Kind
	// AtOp is the per-process operation count at which the fault fires
	// (0 = before the first operation).
	AtOp int64
	// Stall is the pause duration for Stall events.
	Stall time.Duration
	// Yields is the burst length for Storm events.
	Yields int
}

// String renders the event, e.g. "crash P2@7" or "stall P1@3 1ms".
func (e Event) String() string {
	switch e.Kind {
	case Stall:
		return fmt.Sprintf("stall P%d@%d %v", e.Proc, e.AtOp, e.Stall)
	case Storm:
		return fmt.Sprintf("storm P%d@%d ×%d", e.Proc, e.AtOp, e.Yields)
	default:
		return fmt.Sprintf("%v P%d@%d", e.Kind, e.Proc, e.AtOp)
	}
}

// Plan is a complete, deterministic fault schedule.  The zero Plan
// injects nothing.
type Plan struct {
	// Seed is the seed the plan was derived from (0 for hand-built
	// plans); it is echoed in violation reports so failures reproduce.
	Seed uint64
	// Events are the scheduled faults, in any order.
	Events []Event
}

// String renders the plan for reports: "seed=5: crash P2@7, stall P1@3 1ms".
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	if len(p.Events) == 0 {
		b.WriteString(": fault-free")
		return b.String()
	}
	for i, e := range p.Events {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Crashes returns the set of processes the plan crash-stops.
func (p Plan) Crashes() map[int]bool {
	m := make(map[int]bool)
	for _, e := range p.Events {
		if e.Kind == Crash {
			m[e.Proc] = true
		}
	}
	return m
}

// SingleCrash returns the plan that crash-stops proc after atOp completed
// operations and injects nothing else — the building block of the
// "every single-crash pattern" certificates.
func SingleCrash(proc int, atOp int64) Plan {
	return Plan{Events: []Event{{Proc: proc, Kind: Crash, AtOp: atOp}}}
}

// PlanOptions shape RandomPlan's schedule.
type PlanOptions struct {
	// Crashes is the number of distinct processes to crash-stop; it is
	// clamped to n-1 so at least one process survives.
	Crashes int
	// Stalls is the number of bounded stalls to inject.
	Stalls int
	// Storms is the number of scheduling storms to inject.
	Storms int
	// Freeze additionally parks one non-crashed process until all others
	// finish.  At most one process is ever frozen (two frozen processes
	// could wait for each other forever).
	Freeze bool
	// MaxAtOp is the operation-count window in which faults fire
	// (0 means 64).
	MaxAtOp int64
	// MaxStall bounds each stall's duration (0 means 2ms).
	MaxStall time.Duration
	// MaxYields bounds each storm's burst length (0 means 32).
	MaxYields int
}

func (o PlanOptions) maxAtOp() int64 {
	if o.MaxAtOp <= 0 {
		return 64
	}
	return o.MaxAtOp
}

func (o PlanOptions) maxStall() time.Duration {
	if o.MaxStall <= 0 {
		return 2 * time.Millisecond
	}
	return o.MaxStall
}

func (o PlanOptions) maxYields() int {
	if o.MaxYields <= 0 {
		return 32
	}
	return o.MaxYields
}

// RandomPlan derives a fault schedule for n processes deterministically
// from seed: equal seeds (and options) always produce equal plans, so a
// failing run replays exactly.
func RandomPlan(n int, seed uint64, o PlanOptions) Plan {
	rng := rand.New(rand.NewPCG(seed, 0xfa017))
	p := Plan{Seed: seed}

	crashes := o.Crashes
	if crashes > n-1 {
		crashes = n - 1
	}
	victims := rng.Perm(n)
	for i := 0; i < crashes; i++ {
		p.Events = append(p.Events, Event{
			Proc: victims[i], Kind: Crash, AtOp: rng.Int64N(o.maxAtOp() + 1),
		})
	}
	for i := 0; i < o.Stalls; i++ {
		p.Events = append(p.Events, Event{
			Proc: rng.IntN(n), Kind: Stall, AtOp: rng.Int64N(o.maxAtOp() + 1),
			Stall: time.Duration(1 + rng.Int64N(int64(o.maxStall()))),
		})
	}
	for i := 0; i < o.Storms; i++ {
		p.Events = append(p.Events, Event{
			Proc: rng.IntN(n), Kind: Storm, AtOp: rng.Int64N(o.maxAtOp() + 1),
			Yields: 1 + rng.IntN(o.maxYields()),
		})
	}
	if o.Freeze && crashes < n {
		// Freeze a surviving process: frozen-and-later-crashed is legal
		// but wastes the schedule's one freeze on a process that dies.
		p.Events = append(p.Events, Event{
			Proc: victims[crashes+rng.IntN(n-crashes)], Kind: Freeze,
			AtOp: rng.Int64N(o.maxAtOp() + 1),
		})
	}
	return p
}

// crashSignal is the panic value a Crash (or watchdog abort) raises to
// unwind the process out of Decide; the Run driver recovers it.
type crashSignal struct{ proc int }

// budgetSignal is the panic value raised when a process exceeds its step
// budget: a wait-freedom violation, recovered and reported by Run.
type budgetSignal struct {
	proc  int
	steps int64
}

// Injector realizes a Plan at the stack's injection points.  One Injector
// serves one run of one protocol instance: Point is called, on each
// process's own goroutine, at every shared-memory operation boundary
// (consensus.Protocol.SetStepHook wires this automatically; tests driving
// a runtime.Object directly adapt its Recorder's SetHook, and coin walks
// coin.HookedPosition, to it).
type Injector struct {
	n      int
	budget int64
	events [][]Event      // per-proc, sorted by AtOp
	next   []int          // per-proc cursor into events (proc-local)
	steps  []atomic.Int64 // per-proc completed-operation counts
	// done counts processes that have decided or crashed; the Run driver
	// maintains it and Freeze events wait on it.
	done atomic.Int64
	// aborted is the watchdog's kill switch: once set, every process
	// crash-stops at its next injection point.
	aborted atomic.Bool
}

// NewInjector returns an injector for n processes executing plan, with a
// per-process step budget (0 disables budget enforcement).
func NewInjector(n int, plan Plan, budget int64) *Injector {
	in := &Injector{
		n:      n,
		budget: budget,
		events: make([][]Event, n),
		next:   make([]int, n),
		steps:  make([]atomic.Int64, n),
	}
	for _, e := range plan.Events {
		if e.Proc >= 0 && e.Proc < n {
			in.events[e.Proc] = append(in.events[e.Proc], e)
		}
	}
	for _, evs := range in.events {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtOp < evs[j].AtOp })
	}
	return in
}

// Steps returns the number of operation boundaries proc has passed.
func (in *Injector) Steps(proc int) int64 { return in.steps[proc].Load() }

// Abort makes every process crash-stop at its next injection point; the
// watchdog uses it to reclaim goroutines after a deadline.
func (in *Injector) Abort() { in.aborted.Store(true) }

// MarkDone records that a process has decided or crashed, releasing any
// frozen process once all of its peers are done.  The Run driver calls it;
// custom drivers must do the same for Freeze plans to terminate.
func (in *Injector) MarkDone() { in.done.Add(1) }

// Point is the injection point: protocols call it (via their step hook)
// at every shared-memory operation boundary.  It fires any of proc's due
// fault events — possibly panicking with a crash signal, which the Run
// driver recovers as a crash-stop — and enforces the step budget.
func (in *Injector) Point(proc int) {
	if in.aborted.Load() {
		panic(crashSignal{proc})
	}
	s := in.steps[proc].Add(1)
	if in.budget > 0 && s > in.budget {
		panic(budgetSignal{proc: proc, steps: s})
	}
	evs := in.events[proc]
	for in.next[proc] < len(evs) && evs[in.next[proc]].AtOp < s {
		e := evs[in.next[proc]]
		in.next[proc]++
		switch e.Kind {
		case Crash:
			panic(crashSignal{proc})
		case Stall:
			time.Sleep(e.Stall)
		case Freeze:
			in.freeze(proc)
		case Storm:
			for i := 0; i < e.Yields; i++ {
				runtime.Gosched()
			}
		}
	}
}

// freeze parks proc until every other process has decided or crashed, or
// the watchdog aborts the run.
func (in *Injector) freeze(proc int) {
	for in.done.Load() < int64(in.n-1) {
		if in.aborted.Load() {
			panic(crashSignal{proc})
		}
		time.Sleep(50 * time.Microsecond)
	}
}
