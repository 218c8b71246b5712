package protocol

import (
	"fmt"
	"strings"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// Flood is a flawed consensus protocol over r historyless objects, the
// standard target for the §3 lower-bound adversary.
//
// Each process repeatedly scans all r objects; if it sees its own
// preference everywhere it decides it, and otherwise it "floods": it
// performs a nontrivial operation installing its preference on the first
// object that does not hold it.  Register and swap objects are written
// with the encoded preference; test&set objects count as holding any
// preference once set.
//
// Flood satisfies nondeterministic solo termination — a process running
// alone floods every object in at most r rounds and then decides — and it
// is consistent in solo and sequential executions.  By Theorem 3.7 it
// cannot be consistent in general; package core constructs the witness.
//
// Processes are identical (the program never consults the pid), so Flood
// is also a valid target for the §3.1 identical-process construction when
// all objects are read-write registers.
type Flood struct {
	// Types are the shared objects flooded, in order.  Every type must be
	// historyless (register, swap-register, or test&set).
	Types []object.Type
	// OrderByPref, when set, makes processes with preference 1 flood in
	// reverse object order.  Processes with different inputs then start
	// writing at different objects, which drives the adversary through the
	// incomparable-sets case of Lemmas 3.1 and 3.5 (Figure 4).  The
	// program still ignores the pid, so processes remain identical.
	OrderByPref bool
	// Inverted, when set, makes processes decide the opposite of their
	// preference: a solo run then decides 1−input, violating validity.
	// Used to exercise the adversary's validity-witness path.
	Inverted bool
	// Orders, when non-nil, gives an explicit flood order per preference
	// (Orders[0] and Orders[1] are permutations of the object indexes).
	// It generalizes OrderByPref and lets property tests sweep the
	// adversary across arbitrary first-write geometries.
	Orders [2][]int
}

var _ sim.Protocol = Flood{}

// NewRegisterFlood returns a Flood over r read-write registers.
func NewRegisterFlood(r int) Flood {
	types := make([]object.Type, r)
	for i := range types {
		types[i] = object.RegisterType{}
	}
	return Flood{Types: types}
}

// NewSwapFlood returns a Flood over r swap registers.
func NewSwapFlood(r int) Flood {
	types := make([]object.Type, r)
	for i := range types {
		types[i] = object.SwapRegisterType{}
	}
	return Flood{Types: types}
}

// NewMixedFlood returns a Flood over r objects cycling through register,
// swap-register and test&set types.
func NewMixedFlood(r int) Flood {
	types := make([]object.Type, r)
	for i := range types {
		switch i % 3 {
		case 0:
			types[i] = object.RegisterType{}
		case 1:
			types[i] = object.SwapRegisterType{}
		default:
			types[i] = object.TestAndSetType{}
		}
	}
	return Flood{Types: types}
}

// Name implements sim.Protocol.
func (f Flood) Name() string {
	names := make([]string, len(f.Types))
	for i, t := range f.Types {
		names[i] = t.Name()
	}
	return fmt.Sprintf("flood(%s)", strings.Join(names, ","))
}

// Objects implements sim.Protocol.
func (f Flood) Objects() []object.Type { return f.Types }

// Identical implements sim.Protocol: the program ignores the pid.
func (f Flood) Identical() bool { return true }

// Init implements sim.Protocol.
func (f Flood) Init(pid, n int, input int64) sim.State {
	return floodState{proto: f, pref: input, views: make([]int64, 0, len(f.Types))}
}

// floodState is the per-process state of Flood.  views accumulates the
// object values read in the current scan; when the scan completes, the
// process decides or floods and restarts the scan.
//
// Although views is a slice, floodState is treated as immutable: Advance
// copies it before appending, so shared snapshots are never mutated.
type floodState struct {
	proto Flood
	pref  int64
	views []int64 // values read so far in this scan
}

var _ sim.State = floodState{}

// holdsPref reports whether object i with value v counts as holding the
// process's preference.
func (s floodState) holdsPref(i int, v int64) bool {
	if _, isTAS := s.proto.Types[i].(object.TestAndSetType); isTAS {
		return v == 1
	}
	return v == enc(s.pref)
}

// floodOp returns the nontrivial operation that installs the preference on
// object i.
func (s floodState) floodOp(i int) object.Op {
	switch s.proto.Types[i].(type) {
	case object.RegisterType:
		return object.Op{Kind: object.Write, Arg: enc(s.pref)}
	case object.SwapRegisterType:
		return object.Op{Kind: object.Swap, Arg: enc(s.pref)}
	case object.TestAndSetType:
		return object.Op{Kind: object.TestAndSet}
	}
	panic(fmt.Sprintf("protocol: flood over non-historyless type %s", s.proto.Types[i].Name()))
}

// order returns the object indexes in this process's flood order.
func (s floodState) order() []int {
	if o := s.proto.Orders[s.pref]; o != nil {
		return o
	}
	r := len(s.proto.Types)
	idx := make([]int, r)
	for i := range idx {
		if s.proto.OrderByPref && s.pref == 1 {
			idx[i] = r - 1 - i
		} else {
			idx[i] = i
		}
	}
	return idx
}

// Action implements sim.State.
func (s floodState) Action() sim.Action {
	r := len(s.proto.Types)
	if len(s.views) < r {
		// Still scanning: read the next object.
		return sim.Action{
			Kind: sim.ActOperate,
			Obj:  len(s.views),
			Op:   object.Op{Kind: object.Read},
		}
	}
	// Scan complete: decide if every object holds the preference,
	// otherwise flood the first object (in flood order) that does not.
	for _, i := range s.order() {
		if !s.holdsPref(i, s.views[i]) {
			return sim.Action{Kind: sim.ActOperate, Obj: i, Op: s.floodOp(i)}
		}
	}
	value := s.pref
	if s.proto.Inverted {
		value = 1 - value
	}
	return sim.Action{Kind: sim.ActDecide, Value: value}
}

// Advance implements sim.State.
func (s floodState) Advance(result int64) sim.State {
	r := len(s.proto.Types)
	if len(s.views) < r {
		views := make([]int64, len(s.views)+1)
		copy(views, s.views)
		views[len(s.views)] = result
		return floodState{proto: s.proto, pref: s.pref, views: views}
	}
	for _, i := range s.order() {
		if !s.holdsPref(i, s.views[i]) {
			// We just flooded object i; restart the scan.
			return floodState{proto: s.proto, pref: s.pref, views: make([]int64, 0, r)}
		}
	}
	// We just decided.
	return sim.Halted{}
}
