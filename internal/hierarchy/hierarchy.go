// Package hierarchy performs exhaustive protocol-space searches: it
// enumerates *every* protocol in a bounded class — identical processes
// running a small state machine over a single shared object — and model
// checks each for deterministic wait-free 2-process consensus.
//
// This turns the wait-free hierarchy facts the paper builds on (§1:
// read-write registers cannot solve 2-process consensus; objects like
// compare&swap or sticky bits can) from per-protocol demonstrations into
// quantified-over-all-protocols results, within the bounded class:
//
//   - over one register, zero of the thousands of candidate machines
//     solve consensus (a miniature of Loui–Abu-Amara/FLP [26, 16]);
//   - over one sticky bit, working machines exist, and the search finds
//     them.
//
// The machine class: states 0..F-1 are free (enumerated action +
// transition tables); two designated terminal states decide 0 and 1.  A
// process's input selects its start state.  Processes are identical.
package hierarchy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"

	"randsync/internal/explore"
	"randsync/internal/object"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

// actionSpec is one enumerable action: an operation plus a transition
// table mapping the response to the next state.
type actionSpec struct {
	op object.Op
	// next[resp] is the successor state for each possible response,
	// indexed by the response's position in the type's response domain.
	next []int
	// slot[r] is the position of response r in op's response domain, or
	// -1 for a response outside it: buildSpecs looks it up once per op,
	// so compiling a table looks nothing up.  A hand-built spec leaves it
	// unset, and Machine.table fills it in before compiling.
	slot [respSlots]int8
}

// Machine is one enumerated protocol: identical processes, a single
// shared object, free states with enumerated actions, and two decide
// states.
type Machine struct {
	Type   object.Type
	Free   []actionSpec // actions of the free states
	Start0 int          // start state for input 0
	Start1 int          // start state for input 1
	id     uint64
	// states is the compiled step table (compile), shared by machines
	// that differ only in their start states; nil for a hand-built
	// machine, which Init compiles on demand.
	states []machineState
}

var _ sim.Protocol = Machine{}

// The decide states follow the free states.
func (m Machine) decide0State() int { return len(m.Free) }
func (m Machine) decide1State() int { return len(m.Free) + 1 }

// Name implements sim.Protocol.
func (m Machine) Name() string {
	return fmt.Sprintf("machine(%s,#%d)", m.Type.Name(), m.id)
}

// ID is the machine's 1-based position in the canonical enumeration of
// its (Type, freeStates) class — with MachineByID, the machine's wire
// coordinate.
func (m Machine) ID() uint64 { return m.id }

// Objects implements sim.Protocol.
func (m Machine) Objects() []object.Type { return []object.Type{m.Type} }

// Identical implements sim.Protocol.
func (Machine) Identical() bool { return true }

// Init implements sim.Protocol.
func (m Machine) Init(pid, n int, input int64) sim.State {
	states := m.table()
	start := m.Start0
	if input == 1 {
		start = m.Start1
	}
	return &states[start]
}

// table returns m's compiled step table, compiling a hand-built machine's
// on demand with its response slots looked up in the type's domain.
func (m Machine) table() []machineState {
	if m.states != nil {
		return m.states
	}
	d, _ := domainFor(m.Type) // no domain: every response is out of domain
	free := make([]actionSpec, len(m.Free))
	for i, spec := range m.Free {
		spec.slot = d.slots(spec.op)
		free[i] = spec
	}
	return compile(free)
}

// owned returns a copy of m that shares nothing with the enumeration's
// scratch buffers: its own free-state slice and its own compiled table.
func (m Machine) owned() Machine {
	m.Free = append([]actionSpec(nil), m.Free...)
	m.states = compile(m.Free)
	return m
}

// machineState is one state of a compiled machine.  A machine's states
// live in one table — the free states, then decide0 and decide1 — and a
// step returns a pointer into it, so neither the step nor the sim.State
// conversion allocates.  Tables are immutable once compiled.
type machineState struct {
	state  int
	action sim.Action
	// next[r] is the successor on response r; nil for a response outside
	// the op's domain, on which the state self-loops (the checker then
	// reports livelock, disqualifying the machine).
	next [respSlots]*machineState
}

var _ sim.State = (*machineState)(nil)

// respSlots bounds the response values of every enumeration domain:
// responses lie in [0, respSlots), so a response indexes next directly.
const respSlots = 3

// compile builds the step table of a machine with the given free-state
// actions, whose response slots must be filled in.
func compile(free []actionSpec) []machineState {
	states := newTable(len(free))
	compileInto(states, free)
	return states
}

// newTable allocates the step table of a machine with freeStates free
// states, with its state numbers and decide actions set: compileInto
// fills in the free states.
func newTable(freeStates int) []machineState {
	states := make([]machineState, freeStates+2)
	for i := range states {
		states[i].state = i
	}
	states[freeStates].action = sim.Action{Kind: sim.ActDecide, Value: 0}
	states[freeStates+1].action = sim.Action{Kind: sim.ActDecide, Value: 1}
	return states
}

// compileInto overwrites the free states of a newTable table with the
// given actions, without allocating.  A response outside an op's domain
// (every response, for a type without an enumeration domain) gets no
// successor.
func compileInto(states []machineState, free []actionSpec) {
	for i, spec := range free {
		s := &states[i]
		s.action = sim.Action{Kind: sim.ActOperate, Obj: 0, Op: spec.op}
		for r, k := range spec.slot {
			s.next[r] = nil
			if k >= 0 && int(k) < len(spec.next) {
				s.next[r] = &states[spec.next[k]]
			}
		}
	}
}

// Action implements sim.State.
func (s *machineState) Action() sim.Action { return s.action }

// Advance implements sim.State.
func (s *machineState) Advance(result int64) sim.State {
	if s.action.Kind == sim.ActDecide {
		return sim.Halted{}
	}
	if result >= 0 && result < respSlots {
		if next := s.next[result]; next != nil {
			return next
		}
	}
	return s
}

// machineKeyTag is machineState's visited-key type tag (the protocol
// package owns 0x10–0x19; sim uses 0x01 for Halted).
const machineKeyTag byte = 0x30

// AppendKey implements sim.State without allocating: the state number is
// the whole state.
func (s *machineState) AppendKey(buf []byte) []byte {
	buf = append(buf, machineKeyTag)
	return binary.AppendVarint(buf, int64(s.state))
}

// domain describes the object's value set and per-op response domains for
// the enumeration.
type domain struct {
	values []int64 // possible object values
	ops    []object.Op
	// resps[i] is the response domain of ops[i]; every response lies in
	// [0, respSlots).
	resps [][]int64
}

// The enumeration domains are shared, immutable package values: nothing
// may modify them or the slices they hold.
var (
	registerDomain = domain{
		// Values: 0 (initial), 1, 2 (the two proposals).
		values: []int64{0, 1, 2},
		ops: []object.Op{
			{Kind: object.Read},
			{Kind: object.Write, Arg: 1},
			{Kind: object.Write, Arg: 2},
		},
		resps: [][]int64{{0, 1, 2}, {0}, {0}},
	}
	stickyDomain = domain{
		values: []int64{0, 1, 2},
		ops: []object.Op{
			{Kind: object.Read},
			{Kind: object.Stick, Arg: 1},
			{Kind: object.Stick, Arg: 2},
		},
		resps: [][]int64{{0, 1, 2}, {1, 2}, {1, 2}},
	}
	tasDomain = domain{
		values: []int64{0, 1},
		ops: []object.Op{
			{Kind: object.Read},
			{Kind: object.TestAndSet},
		},
		resps: [][]int64{{0, 1}, {0, 1}},
	}
)

// domainFor returns the enumeration domain for the supported types,
// without allocating.
func domainFor(t object.Type) (domain, error) {
	switch t.(type) {
	case object.RegisterType:
		return registerDomain, nil
	case object.StickyBitType:
		return stickyDomain, nil
	case object.TestAndSetType:
		return tasDomain, nil
	}
	return domain{}, fmt.Errorf("hierarchy: no enumeration domain for %s", t.Name())
}

// responseIndex maps a concrete response of op to its position in op's
// response domain, or -1.
func (d domain) responseIndex(op object.Op, resp int64) int {
	for i, o := range d.ops {
		if o == op {
			for j, r := range d.resps[i] {
				if r == resp {
					return j
				}
			}
			return -1
		}
	}
	return -1
}

// slots is op's response → domain-position map, actionSpec.slot.
func (d domain) slots(op object.Op) [respSlots]int8 {
	var s [respSlots]int8
	for r := range s {
		s[r] = int8(d.responseIndex(op, int64(r)))
	}
	return s
}

// Result summarizes a search.
type Result struct {
	// Enumerated is the number of machines examined.
	Enumerated int
	// Solvers is the number that solve deterministic wait-free 2-process
	// consensus (complete exploration, no violation, no livelock).
	Solvers int
	// Example is one solving machine, if any.
	Example *Machine
}

// Options configure a search.
type Options struct {
	// Workers fans the machine enumeration out across this many checker
	// workers (each candidate machine is model checked independently, so
	// the search parallelizes per machine).  0 or 1 is serial; any
	// negative value means GOMAXPROCS.  The Result — including which
	// Example is reported (the lowest-id solver) — is identical for
	// every worker count.
	Workers int
	// Check, when non-nil, replaces the local exhaustive model check of
	// each candidate that survives both stages of the solo prefilter
	// (unanimous solo runs, then sequential agreement), once per
	// survivor: it must report whether the machine solves deterministic
	// wait-free 2-process consensus (complete exploration, no violation,
	// no livelock).  This is the distributed-cluster entry point: a
	// cluster-backed Check routes every model check through
	// coordinator/worker exploration while the enumeration itself stays
	// local.  Check must be safe for concurrent use when Workers > 1.
	Check func(Machine) bool
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

// buildSpecs enumerates the action specs available to one free state.
func buildSpecs(d domain, states int) []actionSpec {
	var specs []actionSpec
	for i, op := range d.ops {
		slot := d.slots(op)
		nResp := len(d.resps[i])
		total := 1
		for k := 0; k < nResp; k++ {
			total *= states
		}
		for code := 0; code < total; code++ {
			next := make([]int, nResp)
			c := code
			for k := 0; k < nResp; k++ {
				next[k] = c % states
				c /= states
			}
			specs = append(specs, actionSpec{op: op, next: next, slot: slot})
		}
	}
	return specs
}

// maxSpecs caps the action specs one free state chooses among.  Every
// class whose machine count fits in a uint64 stays far below it (at most
// 640 specs: sticky bit, six free states), so in practice it refuses only
// a freeStates so large that the spec table itself would be the problem.
const maxSpecs = 1 << 12

// classSize validates the (t, freeStates) class and returns its domain
// and machine count, specs^freeStates · freeStates² for specs action
// specs per free state.  It refuses freeStates < 1, more than maxSpecs
// specs and a count that overflows uint64 — before building anything,
// since freeStates may come off the wire.
func classSize(t object.Type, freeStates int) (domain, uint64, error) {
	d, err := domainFor(t)
	if err != nil {
		return d, 0, err
	}
	if freeStates < 1 {
		return d, 0, fmt.Errorf("hierarchy: %d free states for %s; need at least 1", freeStates, t.Name())
	}
	states := uint64(freeStates) + 2
	var specs uint64
	ok := true
	for _, resps := range d.resps {
		perOp := uint64(1)
		for range resps {
			if perOp, ok = mul(perOp, states); !ok || perOp > maxSpecs {
				break
			}
		}
		if specs += perOp; !ok || specs > maxSpecs {
			return d, 0, fmt.Errorf("hierarchy: %d free states for %s: more than %d action specs per state",
				freeStates, t.Name(), maxSpecs)
		}
	}
	count, ok := mul(uint64(freeStates), uint64(freeStates))
	for k := 0; ok && k < freeStates; k++ {
		count, ok = mul(count, specs)
	}
	if !ok {
		return d, 0, fmt.Errorf("hierarchy: %d free states for %s: machine count overflows uint64",
			freeStates, t.Name())
	}
	return d, count, nil
}

// mul returns a·b and whether it fits in a uint64.
func mul(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0
}

// enumerateSubtree visits every machine whose free-state assignment
// extends prefix, in canonical enumeration order, with ids starting at
// baseID+1.  The id of a machine is a pure function of its position in
// the enumeration, so disjoint subtrees can be visited concurrently and
// still agree with a serial full enumeration.  Each assignment is
// compiled once and shared by its freeStates² start-state pairs; table,
// when non-nil, sees the compiled table before visit sees its machines.
//
// Every assignment is compiled into the same scratch table and free-state
// slice, so a table allocates nothing: the table slice, and the machines
// passed to visit, are valid only during the callback.  A caller that
// keeps a machine keeps its owned copy (Machine.owned).
func enumerateSubtree(t object.Type, specs []actionSpec, freeStates int,
	prefix []actionSpec, baseID uint64, table func([]machineState), visit func(Machine)) {
	assign := make([]actionSpec, freeStates)
	copy(assign, prefix)
	states := newTable(freeStates)
	id := baseID
	var rec func(pos int)
	rec = func(pos int) {
		if pos == freeStates {
			compileInto(states, assign)
			if table != nil {
				table(states)
			}
			for s0 := 0; s0 < freeStates; s0++ {
				for s1 := 0; s1 < freeStates; s1++ {
					id++
					visit(Machine{
						Type:   t,
						Free:   assign,
						Start0: s0,
						Start1: s1,
						id:     id,
						states: states,
					})
				}
			}
			return
		}
		for _, spec := range specs {
			assign[pos] = spec
			rec(pos + 1)
		}
	}
	rec(len(prefix))
}

// Search enumerates every machine with freeStates free states over one
// object of type t and model checks each for 2-process consensus.
//
// The enumeration size is (|ops|·S^|resp|)^F · F², so keep freeStates at 2
// for interactive serial use; SearchWith fans larger enumerations out
// across workers.
func Search(t object.Type, freeStates int) (*Result, error) {
	return SearchWith(t, freeStates, Options{})
}

// SearchWith is Search with explicit Options.
func SearchWith(t object.Type, freeStates int, opts Options) (*Result, error) {
	d, count, err := classSize(t, freeStates)
	if err != nil {
		return nil, err
	}
	specs := buildSpecs(d, freeStates+2)
	workers := opts.workers()

	if workers <= 1 {
		res := &Result{}
		opts.sweep(t, specs, freeStates, nil, 0, res)
		return res, nil
	}

	// Fan out over the spec assigned to free state 0: each subtree is an
	// independent contiguous id range, checked by whichever worker claims
	// it.  Per-worker tallies are merged afterwards; the reported Example
	// is the lowest-id solver, which is exactly the serial first find.
	perSub := count / uint64(len(specs))
	results := make([]Result, workers)
	explore.Each(workers, len(specs), func(w, i int) bool {
		opts.sweep(t, specs, freeStates, specs[i:i+1], uint64(i)*perSub, &results[w])
		return true
	})
	agg := &Result{}
	for i := range results {
		agg.Enumerated += results[i].Enumerated
		agg.Solvers += results[i].Solvers
		if ex := results[i].Example; ex != nil && (agg.Example == nil || ex.id < agg.Example.id) {
			agg.Example = ex
		}
	}
	return agg, nil
}

// sweep searches the subtree of machines extending prefix (ids from
// baseID+1) into res: every machine is counted, and each one that passes
// both stages of the solo prefilter is model checked.  res.Example is the
// lowest-id solver.  Only a survivor is copied out of the enumeration's
// scratch table, so the model check and res.Example own what they hold.
func (o Options) sweep(t object.Type, specs []actionSpec, freeStates int,
	prefix []actionSpec, baseID uint64, res *Result) {
	solo := newSoloFilter(t, freeStates)
	enumerateSubtree(t, specs, freeStates, prefix, baseID, solo.load, func(m Machine) {
		res.Enumerated++
		if !solo.passes(m.Start0, m.Start1) {
			return
		}
		if m = m.owned(); o.check(m) {
			res.Solvers++
			if res.Example == nil || m.id < res.Example.id {
				ex := m
				res.Example = &ex
			}
		}
	})
}

// check reports whether a prefilter survivor is a correct deterministic
// wait-free 2-process consensus protocol: over every input vector,
// exploration is complete with no violation and no livelock.  It
// dispatches through Options.Check when set, so a cluster-backed Check
// only sees the candidates worth shipping.
func (o Options) check(m Machine) bool {
	if o.Check != nil {
		return o.Check(m)
	}
	rep := valency.CheckAllInputs(m, 2, valency.Options{MaxConfigs: 1 << 12})
	return rep.Violation == nil && rep.Complete && !rep.Livelock
}

// maxSoloBudget caps the step budget of the prefilter's solo runs.
const maxSoloBudget = 64

// soloBound is the step budget of the prefilter's solo runs over t with
// freeStates free states: min(maxSoloBudget, freeStates·|values| + 1).
// It loses no decision.  A machine is deterministic, and in the walk the
// other process never moves, so a solo run's configuration is the walking
// process's state and the object value.  A run that has not decided after
// freeStates·|values| operations has repeated a (free state, value) pair
// and will never decide; the +1 is the decide step itself.  That holds
// from any reachable object value, so it bounds the agreement stage's
// second run too.  An enumerated machine's ops are the domain's, so the
// object stays within its values (TestDomainClosure); a type without a
// domain gets the cap.
func soloBound(t object.Type, freeStates int) int {
	d, err := domainFor(t)
	if err != nil {
		return maxSoloBudget
	}
	return min(maxSoloBudget, freeStates*len(d.values)+1)
}

// noDecision marks a start state whose solo run never decides; machines
// decide only 0 and 1.
const noDecision = -1

// soloFilter is the search's cheap rejection, in two stages that run no
// interleaving and never allocate.  Both reject only machines the model
// check would reject, so the census is exact.
//
// The unanimous stage: a solo run of P0 from the unanimous input-v
// configuration must decide v (within budget steps, which loses nothing:
// soloBound).  A machine is deterministic and a solo run never reads P1,
// so that run is a function of the compiled table and P0's start state
// alone: one walk per free state (load) answers the stage for all the
// table's start pairs.
//
// The agreement stage (agrees), on the unanimous survivors: with inputs
// (0, 1), P0 runs solo to its decision and then P1 runs solo from there,
// and P1 must decide the same value; likewise with P1 first.  Each is a
// real execution, so a second process that decides the other value is a
// consistency violation, and one that does not decide within budget has
// repeated a (state, value) pair and will never decide, which the model
// check reports as livelock.
//
// Every walk runs on one scratch configuration, reused for every table of
// the sweep and restored after each use.  A filter is not safe for
// concurrent use.
type soloFilter struct {
	c      *sim.Config
	budget int
	// states is the loaded table, valid while the enumeration's callback
	// for it runs.
	states []machineState
	// dec[s] is what P0's solo run from free state s decides, or
	// noDecision, for the loaded table.
	dec []int64
	// undo holds the steps of the agreement stage's first solo run.
	undo []sim.StepUndo
}

// newSoloFilter returns a filter for machines over t with freeStates
// free states.  The scratch configuration takes its object from the
// machine with no free states; the processes' states are replaced before
// each walk.
func newSoloFilter(t object.Type, freeStates int) *soloFilter {
	budget := soloBound(t, freeStates)
	return &soloFilter{
		c:      sim.NewConfig(Machine{Type: t}, []int64{0, 0}),
		budget: budget,
		dec:    make([]int64, freeStates),
		undo:   make([]sim.StepUndo, budget),
	}
}

// load runs the solo walk from every free state of a compiled table.
func (f *soloFilter) load(states []machineState) {
	f.states = states
	for s := range f.dec {
		f.c.SetState(0, &states[s])
		d, ok := sim.SoloDecision(f.c, 0, f.budget)
		if !ok {
			d = noDecision
		}
		f.dec[s] = d
	}
}

// passes reports whether the loaded table's machine with start states s0
// (input 0) and s1 (input 1) passes both stages.
func (f *soloFilter) passes(s0, s1 int) bool {
	return f.unanimous(s0, s1) && f.agrees(s0, s1)
}

// unanimous reports whether the machine decides its input in both
// unanimous solo runs.
func (f *soloFilter) unanimous(s0, s1 int) bool {
	return f.dec[s0] == 0 && f.dec[s1] == 1
}

// agrees reports whether, from inputs (0, 1), each process's solo run
// to its decision followed by the other's solo run decides one value,
// in both orders.
func (f *soloFilter) agrees(s0, s1 int) bool {
	c := f.c
	p0, p1 := c.States[0], c.States[1]
	c.SetState(0, &f.states[s0])
	c.SetState(1, &f.states[s1])
	ok := f.sequential(0, 1) && f.sequential(1, 0)
	c.SetState(0, p0)
	c.SetState(1, p1)
	return ok
}

// sequential runs first solo to its decision, then second solo from
// there, and reports whether both decide the same value.  A machine has
// no coin, so the first run is a straight line of at most budget steps;
// it is undone before return.
func (f *soloFilter) sequential(first, second int) bool {
	c := f.c
	n := 0
	for n < f.budget && !c.Decided[first] {
		if _, err := c.StepInto(first, 0, &f.undo[n]); err != nil {
			break
		}
		n++
	}
	ok := false
	if c.Decided[first] {
		d, decided := sim.SoloDecision(c, second, f.budget)
		ok = decided && d == c.Decision[first]
	}
	for n--; n >= 0; n-- {
		c.UndoStep(&f.undo[n])
	}
	return ok
}

// MachineCount returns the size of the enumeration for freeStates free
// states over one object of type t — the valid MachineByID id range is
// [1, MachineCount].  It is an error for freeStates < 1 or for a class
// too large to count in a uint64.
func MachineCount(t object.Type, freeStates int) (uint64, error) {
	_, count, err := classSize(t, freeStates)
	return count, err
}

// MachineByID reconstructs the machine with the given enumeration id —
// the id is a pure function of the machine's position in the canonical
// enumeration (ids start at 1), so any process that agrees on (t,
// freeStates, id) builds the identical machine.  The distributed checker
// uses this to name enumerated machines in wire-format job specs.
func MachineByID(t object.Type, freeStates int, id uint64) (Machine, error) {
	d, total, err := classSize(t, freeStates)
	if err != nil {
		return Machine{}, err
	}
	if id < 1 || id > total {
		return Machine{}, fmt.Errorf("hierarchy: machine id %d out of range [1,%d] for %s with %d free states",
			id, total, t.Name(), freeStates)
	}
	specs := buildSpecs(d, freeStates+2)
	// Decode the enumeration position: s1 varies fastest, then s0, then
	// the free-state assignment digits with position 0 most significant —
	// exactly enumerateSubtree's visit order.
	x := id - 1
	s1 := int(x % uint64(freeStates))
	x /= uint64(freeStates)
	s0 := int(x % uint64(freeStates))
	x /= uint64(freeStates)
	free := make([]actionSpec, freeStates)
	for pos := freeStates - 1; pos >= 0; pos-- {
		free[pos] = specs[x%uint64(len(specs))]
		x /= uint64(len(specs))
	}
	return Machine{Type: t, Free: free, Start0: s0, Start1: s1, id: id, states: compile(free)}, nil
}

// Describe renders a machine's program for display.
func Describe(m Machine) string {
	out := fmt.Sprintf("start(input 0) = S%d, start(input 1) = S%d\n", m.Start0, m.Start1)
	for i, spec := range m.Free {
		out += fmt.Sprintf("S%d: %v →", i, spec.op)
		d, _ := domainFor(m.Type)
		var resps []int64
		for j, op := range d.ops {
			if op == spec.op {
				resps = d.resps[j]
			}
		}
		for k, nxt := range spec.next {
			label := fmt.Sprintf("S%d", nxt)
			if nxt == m.decide0State() {
				label = "decide0"
			}
			if nxt == m.decide1State() {
				label = "decide1"
			}
			out += fmt.Sprintf(" [resp %d ⇒ %s]", resps[k], label)
		}
		out += "\n"
	}
	return out
}
