package protocol

import (
	"randsync/internal/object"
	"randsync/internal/sim"
)

// empty is the initial value of registers that hold "no process here yet".
const empty int64 = -1

// CASConsensus solves n-process consensus deterministically with a single
// compare&swap register (Herlihy [20], used by Corollary 4.1): each process
// attempts CAS(⊥ → input) and decides the value that ends up installed.
type CASConsensus struct{}

var _ sim.Protocol = CASConsensus{}

// Name implements sim.Protocol.
func (CASConsensus) Name() string { return "cas-consensus" }

// Objects implements sim.Protocol.
func (CASConsensus) Objects() []object.Type {
	return []object.Type{object.CASType{Initial: empty}}
}

// Identical implements sim.Protocol.
func (CASConsensus) Identical() bool { return true }

// Init implements sim.Protocol.
func (CASConsensus) Init(pid, n int, input int64) sim.State {
	return casState{input: input}
}

type casState struct {
	input int64
}

var _ sim.State = casState{}

func (s casState) Action() sim.Action {
	return sim.Action{
		Kind: sim.ActOperate,
		Obj:  0,
		Op:   object.Op{Kind: object.CompareAndSwap, Arg: s.input, Arg2: empty},
	}
}

func (s casState) Advance(result int64) sim.State {
	if result == empty {
		// The CAS succeeded: our input is installed.
		return decideState{v: s.input}
	}
	// Someone else installed first; adopt their value.
	return decideState{v: result}
}

// winnerLoser is the common skeleton of the deterministic two-process
// protocols of §4: each process publishes its input in its own register,
// performs one "ordering" operation on a shared object whose response
// reveals whether it came first, and the loser adopts the winner's
// published input.
//
// Objects: R0, R1 (registers, publication slots), plus the ordering object
// at index 2.
type winnerLoser struct {
	name     string
	ordering object.Type
	orderOp  object.Op
	// won reports whether the ordering response means "first".
	won func(resp int64) bool
}

var _ sim.Protocol = winnerLoser{}

// NewTAS2 returns the two-process test&set consensus protocol.
func NewTAS2() sim.Protocol {
	return winnerLoser{
		name:     "tas-2",
		ordering: object.TestAndSetType{},
		orderOp:  object.Op{Kind: object.TestAndSet},
		won:      func(resp int64) bool { return resp == 0 },
	}
}

// NewSwap2 returns the two-process swap-register consensus protocol.
func NewSwap2() sim.Protocol {
	return winnerLoser{
		name:     "swap-2",
		ordering: object.SwapRegisterType{},
		orderOp:  object.Op{Kind: object.Swap, Arg: 1},
		won:      func(resp int64) bool { return resp == 0 },
	}
}

// NewFetchAdd2 returns the two-process fetch&add consensus protocol.
// (§4: an operation whose first response always differs from the second's
// solves 2-process consensus.)
func NewFetchAdd2() sim.Protocol {
	return winnerLoser{
		name:     "fetch&add-2",
		ordering: object.FetchAddType{},
		orderOp:  object.Op{Kind: object.FetchAdd, Arg: 1},
		won:      func(resp int64) bool { return resp == 0 },
	}
}

// NewFetchInc2 returns the two-process fetch&increment consensus protocol.
func NewFetchInc2() sim.Protocol {
	return winnerLoser{
		name:     "fetch&inc-2",
		ordering: object.FetchIncType{},
		orderOp:  object.Op{Kind: object.FetchInc},
		won:      func(resp int64) bool { return resp == 0 },
	}
}

// Name implements sim.Protocol.
func (p winnerLoser) Name() string { return p.name }

// Objects implements sim.Protocol.
func (p winnerLoser) Objects() []object.Type {
	return []object.Type{
		object.RegisterType{Initial: empty},
		object.RegisterType{Initial: empty},
		p.ordering,
	}
}

// Identical implements sim.Protocol: processes use their pid to select
// their publication register.
func (winnerLoser) Identical() bool { return false }

// Init implements sim.Protocol.  The protocol is defined for n = 2 only;
// a third process halts immediately without deciding, which the valency
// checker reports as a liveness defect at n ≥ 3.
func (p winnerLoser) Init(pid, n int, input int64) sim.State {
	if pid > 1 {
		return sim.Halted{}
	}
	return wlState{proto: p, pid: pid, input: input, pc: 0}
}

type wlState struct {
	proto wlProto
	pid   int
	input int64
	pc    uint8
}

// wlProto is the subset of winnerLoser a state needs; storing the protocol
// by value keeps states comparable and immutable.
type wlProto = winnerLoser

var _ sim.State = wlState{}

func (s wlState) Action() sim.Action {
	switch s.pc {
	case 0: // publish input
		return sim.Action{Kind: sim.ActOperate, Obj: s.pid,
			Op: object.Op{Kind: object.Write, Arg: s.input}}
	case 1: // ordering operation
		return sim.Action{Kind: sim.ActOperate, Obj: 2, Op: s.proto.orderOp}
	default: // read the other process's publication
		return sim.Action{Kind: sim.ActOperate, Obj: 1 - s.pid,
			Op: object.Op{Kind: object.Read}}
	}
}

func (s wlState) Advance(result int64) sim.State {
	switch s.pc {
	case 0:
		s.pc = 1
		return s
	case 1:
		if s.proto.won(result) {
			return decideState{v: s.input}
		}
		s.pc = 2
		return s
	default:
		// The winner published before its ordering operation, which we
		// lost, so its input is visible.
		return decideState{v: result}
	}
}

// RegisterNaive2 is the natural-but-doomed deterministic register protocol
// for two processes: publish the input, read the peer, decide your own
// input if the peer is absent and min(inputs) otherwise.  Read-write
// registers cannot solve deterministic wait-free 2-process consensus
// ([2, 15, 20, 26]); the valency checker exhibits this protocol's
// inconsistent schedule (E11).
type RegisterNaive2 struct{}

var _ sim.Protocol = RegisterNaive2{}

// Name implements sim.Protocol.
func (RegisterNaive2) Name() string { return "register-naive-2" }

// Objects implements sim.Protocol.
func (RegisterNaive2) Objects() []object.Type {
	return []object.Type{
		object.RegisterType{Initial: empty},
		object.RegisterType{Initial: empty},
	}
}

// Identical implements sim.Protocol.
func (RegisterNaive2) Identical() bool { return false }

// Init implements sim.Protocol.
func (RegisterNaive2) Init(pid, n int, input int64) sim.State {
	if pid > 1 {
		return sim.Halted{}
	}
	return naiveState{pid: pid, input: input}
}

type naiveState struct {
	pid   int
	input int64
	pc    uint8
}

var _ sim.State = naiveState{}

func (s naiveState) Action() sim.Action {
	if s.pc == 0 {
		return sim.Action{Kind: sim.ActOperate, Obj: s.pid,
			Op: object.Op{Kind: object.Write, Arg: s.input}}
	}
	return sim.Action{Kind: sim.ActOperate, Obj: 1 - s.pid,
		Op: object.Op{Kind: object.Read}}
}

func (s naiveState) Advance(result int64) sim.State {
	if s.pc == 0 {
		s.pc = 1
		return s
	}
	if result == empty {
		return decideState{v: s.input}
	}
	return decideState{v: min64(s.input, result)}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// StickyConsensus solves n-process consensus deterministically with a
// single sticky bit: every process sticks its encoded input and decides
// the stuck value.  Like compare&swap, the sticky bit sits at the top of
// the hierarchy — one instance for any n.
type StickyConsensus struct{}

var _ sim.Protocol = StickyConsensus{}

// Name implements sim.Protocol.
func (StickyConsensus) Name() string { return "sticky-consensus" }

// Objects implements sim.Protocol.
func (StickyConsensus) Objects() []object.Type {
	return []object.Type{object.StickyBitType{}}
}

// Identical implements sim.Protocol.
func (StickyConsensus) Identical() bool { return true }

// Init implements sim.Protocol.
func (StickyConsensus) Init(pid, n int, input int64) sim.State {
	return stickyState{input: input}
}

type stickyState struct {
	input int64
}

var _ sim.State = stickyState{}

func (s stickyState) Action() sim.Action {
	return sim.Action{Kind: sim.ActOperate, Obj: 0,
		Op: object.Op{Kind: object.Stick, Arg: s.input + 1}}
}

func (s stickyState) Advance(result int64) sim.State {
	return decideState{v: result - 1}
}
