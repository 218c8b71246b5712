// Package sim is a deterministic simulator for the asynchronous
// shared-memory model of §2 of Fich, Herlihy and Shavit: n sequential
// processes communicate by applying operations to linearizable shared
// objects, interleaved one step at a time by a scheduler.
//
// Process programs are represented as immutable state machines (State):
// each state announces the action the process will perform when next
// allocated a step — a shared-object operation, a coin flip, or a decision —
// and Advance consumes the action's result to produce the successor state.
// Immutability makes configurations cheap to snapshot, branch and splice,
// which is what the lower-bound constructions of §3 (package core), the
// exhaustive valency checker (package valency) and the clone technique of
// §3.1 all require.
//
// Coin flips are resolved by the caller, matching the paper's treatment of
// randomization for lower bounds: "every state transition having non-zero
// probability can be viewed as a possible nondeterministic choice."  The
// solo-termination searcher (SoloTerminate) realizes the nondeterministic
// solo termination property by searching over flip outcomes.
package sim

import (
	"fmt"
	"strings"

	"randsync/internal/object"
)

// ActionKind discriminates the kinds of process steps.
type ActionKind uint8

const (
	// ActOperate applies Action.Op to shared object Action.Obj.
	ActOperate ActionKind = iota
	// ActFlip performs an internal coin flip with Action.Sides outcomes;
	// the outcome is chosen by the scheduler (adversary) in [0, Sides).
	ActFlip
	// ActDecide decides the value Action.Value and halts the process.
	ActDecide
	// ActHalt marks a process that has finished; it takes no further steps.
	ActHalt
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActOperate:
		return "operate"
	case ActFlip:
		return "flip"
	case ActDecide:
		return "decide"
	case ActHalt:
		return "halt"
	}
	return fmt.Sprintf("actionkind(%d)", uint8(k))
}

// Action is the pending step of a process: what it will do when next
// allocated a step by the scheduler.
type Action struct {
	Kind  ActionKind
	Obj   int       // object index, for ActOperate
	Op    object.Op // operation, for ActOperate
	Sides int64     // number of outcomes, for ActFlip (≥ 2)
	Value int64     // decision value, for ActDecide
}

// String renders the action, e.g. "R2.write(1)" or "flip(2)" or "decide(0)".
func (a Action) String() string {
	switch a.Kind {
	case ActOperate:
		return fmt.Sprintf("R%d.%v", a.Obj, a.Op)
	case ActFlip:
		return fmt.Sprintf("flip(%d)", a.Sides)
	case ActDecide:
		return fmt.Sprintf("decide(%d)", a.Value)
	case ActHalt:
		return "halt"
	}
	return a.Kind.String()
}

// State is an immutable process state.
//
// Implementations must be pure values: Advance returns a new State and
// never mutates the receiver, so that a Config can be snapshotted by
// copying its state slice.
type State interface {
	// Action returns the step the process takes from this state.
	Action() Action
	// Advance consumes the result of the announced action — the operation
	// response for ActOperate, the outcome for ActFlip, ignored for
	// ActDecide — and returns the successor state.
	Advance(result int64) State
	// AppendKey appends the state's visited-set key to buf and returns
	// the extended slice: a leading type tag, unique among the state
	// types that can share a configuration, then the fields that
	// determine the state's behaviour, self-delimiting.  Every engine
	// merges configurations with equal keys, so two states with equal
	// AppendKey output must behave identically (TestStateKeyCongruence
	// in package valency checks it for every registered protocol).  The
	// layout is in encode.go.
	AppendKey(buf []byte) []byte
}

// Halted is the terminal state of a process that has decided.
type Halted struct{}

var _ State = Halted{}

// Action implements State.
func (Halted) Action() Action { return Action{Kind: ActHalt} }

// Advance implements State; a halted process never advances.
func (Halted) Advance(int64) State { return Halted{} }

// Protocol is a consensus (or other one-shot object) implementation in the
// simulator world: a fixed set of shared objects plus a program run by each
// process.
type Protocol interface {
	// Name identifies the protocol in logs and test output.
	Name() string
	// Objects returns the types of the shared objects the implementation
	// uses.  The space complexity of the implementation is len(Objects()).
	Objects() []object.Type
	// Init returns the initial state of process pid of n with the given
	// input value.
	Init(pid, n int, input int64) State
	// Identical reports whether the program ignores pid, i.e. whether all
	// processes with equal inputs are identical in the sense of §3.1.
	// Only identical-process protocols admit cloning.
	Identical() bool
}

// Config is a configuration (§2): the state of every process and the value
// of every object, plus decision bookkeeping.
type Config struct {
	Proto    Protocol
	Inputs   []int64 // per-process input values
	States   []State // per-process states
	Objects  []int64 // per-object values
	Decided  []bool  // per-process: has it decided?
	Decision []int64 // per-process decision (valid when Decided)
	Steps    []int   // per-process count of steps taken

	types []object.Type // cached Proto.Objects()
}

// NewConfig returns the initial configuration of proto for the given
// process inputs (len(inputs) = n processes).
func NewConfig(proto Protocol, inputs []int64) *Config {
	types := proto.Objects()
	n := len(inputs)
	c := &Config{
		Proto:    proto,
		Inputs:   append([]int64(nil), inputs...),
		States:   make([]State, n),
		Objects:  make([]int64, len(types)),
		Decided:  make([]bool, n),
		Decision: make([]int64, n),
		Steps:    make([]int, n),
		types:    types,
	}
	for i, typ := range types {
		c.Objects[i] = typ.Init()
	}
	for pid, input := range inputs {
		c.States[pid] = proto.Init(pid, n, input)
	}
	return c
}

// N returns the number of processes.
func (c *Config) N() int { return len(c.States) }

// R returns the number of shared objects.
func (c *Config) R() int { return len(c.Objects) }

// Types returns the object types (shared, not copied; treat as read-only).
func (c *Config) Types() []object.Type { return c.types }

// Clone returns an independent copy of the configuration.  States are
// immutable values, so only the slices are copied.
func (c *Config) Clone() *Config {
	return &Config{
		Proto:    c.Proto,
		Inputs:   append([]int64(nil), c.Inputs...),
		States:   append([]State(nil), c.States...),
		Objects:  append([]int64(nil), c.Objects...),
		Decided:  append([]bool(nil), c.Decided...),
		Decision: append([]int64(nil), c.Decision...),
		Steps:    append([]int(nil), c.Steps...),
		types:    c.types,
	}
}

// CloneInto copies c into dst, reusing dst's slice storage when the
// capacities fit — the allocation-free counterpart of Clone for engines
// that recycle frontier configurations through per-worker arenas.  A nil
// dst allocates fresh (equivalent to Clone).  Returns dst.
func (c *Config) CloneInto(dst *Config) *Config {
	if dst == nil {
		return c.Clone()
	}
	dst.Proto = c.Proto
	dst.Inputs = append(dst.Inputs[:0], c.Inputs...)
	dst.States = append(dst.States[:0], c.States...)
	dst.Objects = append(dst.Objects[:0], c.Objects...)
	dst.Decided = append(dst.Decided[:0], c.Decided...)
	dst.Decision = append(dst.Decision[:0], c.Decision...)
	dst.Steps = append(dst.Steps[:0], c.Steps...)
	dst.types = c.types
	return dst
}

// Pending returns the action process pid will perform when next scheduled.
func (c *Config) Pending(pid int) Action { return c.States[pid].Action() }

// PoisedAt reports the object at which process pid is poised: pid is
// poised at R if it will perform a nontrivial operation on R when next
// allocated a step (§3).  ok is false if pid's next step is not a
// nontrivial operation.
func (c *Config) PoisedAt(pid int) (obj int, ok bool) {
	a := c.States[pid].Action()
	if a.Kind != ActOperate {
		return 0, false
	}
	if object.Trivial(c.types[a.Obj], a.Op.Kind) {
		return 0, false
	}
	return a.Obj, true
}

// Event records one executed step: the process, the action it performed,
// and the result it observed (operation response, or coin outcome).
type Event struct {
	Pid    int
	Action Action
	Result int64
}

// String renders the event, e.g. "P3: R0.write(1) → 0".
func (e Event) String() string {
	switch e.Action.Kind {
	case ActDecide:
		return fmt.Sprintf("P%d: %v", e.Pid, e.Action)
	default:
		return fmt.Sprintf("P%d: %v → %d", e.Pid, e.Action, e.Result)
	}
}

// Execution is a sequence of steps (§2: an interleaving of the sequences of
// steps performed by each process).
type Execution []Event

// String renders the execution one event per line.
func (x Execution) String() string {
	var b strings.Builder
	for i, e := range x {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// ByProcess returns the pids that take at least one step, in order of
// first appearance.
func (x Execution) ByProcess() []int {
	seen := make(map[int]bool)
	var pids []int
	for _, e := range x {
		if !seen[e.Pid] {
			seen[e.Pid] = true
			pids = append(pids, e.Pid)
		}
	}
	return pids
}

// Step executes the pending action of process pid, mutating c.
//
// For flip actions, outcome supplies the coin result and must lie in
// [0, Sides); for all other actions outcome is ignored.  Step returns the
// recorded event, or an error if pid has halted or outcome is invalid.
func (c *Config) Step(pid int, outcome int64) (Event, error) {
	var u StepUndo
	return c.StepInto(pid, outcome, &u)
}

// StepUndo records what one StepInto changed, so UndoStep can restore the
// configuration exactly.  A zero StepUndo is ready for use; the serial
// exploration engine keeps one per DFS frame on the stack.
type StepUndo struct {
	pid      int
	kind     ActionKind
	state    State // States[pid] before the step
	obj      int   // object mutated, for ActOperate
	objVal   int64 // Objects[obj] before the step
	decided  bool  // Decided[pid] before the step, for ActDecide
	decision int64 // Decision[pid] before the step, for ActDecide
}

// StepInto is the copy-on-write counterpart of Clone-then-Step: it
// executes the pending action of pid in place, recording the overwritten
// values in u so UndoStep can back the configuration out on backtrack.
// On error the configuration is unchanged and u is not meaningful.
func (c *Config) StepInto(pid int, outcome int64, u *StepUndo) (Event, error) {
	if pid < 0 || pid >= len(c.States) {
		return Event{}, fmt.Errorf("sim: step of unknown process P%d", pid)
	}
	a := c.States[pid].Action()
	u.pid, u.kind, u.state = pid, a.Kind, c.States[pid]
	switch a.Kind {
	case ActOperate:
		if a.Obj < 0 || a.Obj >= len(c.Objects) {
			return Event{}, fmt.Errorf("sim: P%d operates on unknown object R%d", pid, a.Obj)
		}
		u.obj, u.objVal = a.Obj, c.Objects[a.Obj]
		newVal, resp := c.types[a.Obj].Apply(c.Objects[a.Obj], a.Op)
		c.Objects[a.Obj] = newVal
		c.States[pid] = c.States[pid].Advance(resp)
		c.Steps[pid]++
		return Event{Pid: pid, Action: a, Result: resp}, nil
	case ActFlip:
		if a.Sides < 2 {
			return Event{}, fmt.Errorf("sim: P%d flips a %d-sided coin", pid, a.Sides)
		}
		if outcome < 0 || outcome >= a.Sides {
			return Event{}, fmt.Errorf("sim: flip outcome %d out of range [0,%d)", outcome, a.Sides)
		}
		c.States[pid] = c.States[pid].Advance(outcome)
		c.Steps[pid]++
		return Event{Pid: pid, Action: a, Result: outcome}, nil
	case ActDecide:
		u.decided, u.decision = c.Decided[pid], c.Decision[pid]
		c.Decided[pid] = true
		c.Decision[pid] = a.Value
		c.States[pid] = c.States[pid].Advance(0)
		if _, isHalt := c.States[pid].(Halted); !isHalt {
			// Normalize: deciding halts the process regardless of what the
			// protocol returns, so one DECIDE per process is enforced.
			c.States[pid] = Halted{}
		}
		c.Steps[pid]++
		return Event{Pid: pid, Action: a, Result: a.Value}, nil
	case ActHalt:
		return Event{}, fmt.Errorf("sim: step of halted process P%d", pid)
	}
	return Event{}, fmt.Errorf("sim: P%d has unknown action kind %v", pid, a.Kind)
}

// UndoStep reverses the mutation recorded by a successful StepInto,
// restoring the configuration that preceded it.  Undos must be applied in
// reverse step order (LIFO), which is exactly the DFS backtrack order.
func (c *Config) UndoStep(u *StepUndo) {
	c.States[u.pid] = u.state
	c.Steps[u.pid]--
	switch u.kind {
	case ActOperate:
		c.Objects[u.obj] = u.objVal
	case ActDecide:
		c.Decided[u.pid] = u.decided
		c.Decision[u.pid] = u.decision
	}
}

// Apply replays an execution against c, mutating c, and verifies at each
// event that the process's pending action matches the recorded action and
// that the recomputed result matches the recorded result.  A mismatch means
// the execution is not legal from c — exactly the condition the splicing
// constructions of §3 must never produce — and is returned as an error.
func (c *Config) Apply(x Execution) error {
	for i, e := range x {
		pending := c.States[e.Pid].Action()
		if pending != e.Action {
			return fmt.Errorf("sim: event %d: P%d pending action %v, execution records %v",
				i, e.Pid, pending, e.Action)
		}
		got, err := c.Step(e.Pid, e.Result)
		if err != nil {
			return fmt.Errorf("sim: event %d: %w", i, err)
		}
		if got.Result != e.Result {
			return fmt.Errorf("sim: event %d: P%d %v observed %d, execution records %d",
				i, e.Pid, e.Action, got.Result, e.Result)
		}
	}
	return nil
}

// CloneProcess copies the current state of process src into process dst,
// realizing the clone technique of §3.1: a clone is a process that has the
// same state as src and therefore performs the same operations.
//
// Cloning is sound only when the protocol's processes are identical
// (Protocol.Identical) and the two processes have the same input; dst must
// not have taken any steps.  CloneProcess returns an error otherwise.
func (c *Config) CloneProcess(src, dst int) error {
	if !c.Proto.Identical() {
		return fmt.Errorf("sim: protocol %s does not have identical processes; cloning unsound", c.Proto.Name())
	}
	if src == dst {
		return fmt.Errorf("sim: cannot clone P%d onto itself", src)
	}
	if c.Inputs[src] != c.Inputs[dst] {
		return fmt.Errorf("sim: clone input mismatch: P%d has input %d, P%d has input %d",
			src, c.Inputs[src], dst, c.Inputs[dst])
	}
	if c.Steps[dst] != 0 {
		return fmt.Errorf("sim: clone target P%d has already taken %d steps", dst, c.Steps[dst])
	}
	c.States[dst] = c.States[src]
	return nil
}

// SetState overwrites the state of process pid.  It is used by the §3.1
// adversary to park a captured (pre-write) state on a fresh process slot,
// and by the protocol-space search to aim one scratch configuration's
// solo walks at each start state in turn; the same soundness conditions
// as CloneProcess apply and are not checked here.  Most callers want
// CloneProcess.
func (c *Config) SetState(pid int, s State) { c.States[pid] = s }

// Decisions returns the set of values decided by any process.
func (c *Config) Decisions() map[int64][]int {
	m := make(map[int64][]int)
	for p, d := range c.Decided {
		if d {
			m[c.Decision[p]] = append(m[c.Decision[p]], p)
		}
	}
	return m
}

// Validate checks that every operation any process is poised to perform is
// supported by the target object type.  Protocol authors should call it in
// tests; the adversary calls it before trusting a protocol.
func Validate(proto Protocol, n int) error {
	types := proto.Objects()
	for pid := 0; pid < n; pid++ {
		for _, input := range []int64{0, 1} {
			s := proto.Init(pid, n, input)
			a := s.Action()
			if a.Kind == ActOperate {
				if a.Obj < 0 || a.Obj >= len(types) {
					return fmt.Errorf("sim: %s: P%d initial action targets unknown object R%d",
						proto.Name(), pid, a.Obj)
				}
				if err := object.Validate(types[a.Obj], a.Op); err != nil {
					return fmt.Errorf("sim: %s: P%d initial action: %w", proto.Name(), pid, err)
				}
			}
		}
	}
	return nil
}
