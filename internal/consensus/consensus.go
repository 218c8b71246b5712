// Package consensus runs the paper's consensus upper bounds live, as
// goroutines over linearizable shared objects.  Each bound with a step
// machine in package protocol runs that machine, the one package valency
// checks over every schedule and coin (Machine); Resolve builds them by
// their registry names (package zoo):
//
//   - one compare&swap register, deterministic, any n (Herlihy [20],
//     behind Corollary 4.1);
//   - one test&set / swap / fetch&add / fetch&increment object plus two
//     registers, deterministic, n = 2 (the §4 warm-ups);
//   - three counters driving a random walk, randomized, any n
//     (Aspnes [7], the published basis of Theorem 4.2);
//   - a single fetch&add register with the three walk fields packed into
//     one word, randomized, any n ≤ protocol.MaxPackedN (Theorem 4.4);
//   - the Theorem 2.1 composition: the three-counter machine with each
//     counter realised from n read-write registers (package counting),
//     multiplying the object counts.
//
// One protocol is written by hand: O(n) read-write registers
// (Aspnes–Herlihy [9]), conciliator plus adopt-commit rounds over the weak
// shared coin of package coin (Registers).  Its step machine,
// protocol.RegisterConsensus, flips a local coin in place of the shared
// one to keep the checked space finite, so the two are different
// algorithms and the live one is its own code.
//
// Every protocol reports its object-instance usage — the quantity the
// paper's space-complexity separation is about — and counts shared-memory
// operations for the work benchmarks.
package consensus

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"randsync/internal/counting"
	"randsync/internal/object"
	"randsync/internal/protocol"
	"randsync/internal/runtime"
	"randsync/internal/sim"
	"randsync/internal/zoo"
)

// Protocol is a live, single-shot, n-process binary consensus object.
// Each process may call Decide at most once, with its pid and an input in
// {0, 1}; all calls return the same value, which is some caller's input.
type Protocol interface {
	// Name identifies the protocol in benchmark output.
	Name() string
	// Decide performs proc's DECIDE operation.
	Decide(proc int, input int64) int64
	// Objects returns the number of non-register object instances used.
	Objects() int
	// Registers returns the number of read-write registers used (the
	// wait-free hierarchy grants these freely; the separation results
	// count them separately).
	Registers() int
	// Ops returns the total number of shared-object operations performed
	// so far, for the work measurements (E5–E7).
	Ops() int64
	// SetStepHook installs f to be called on the deciding process's own
	// goroutine at every shared-memory operation boundary inside Decide.
	// It is the live world's injection point: package fault uses it to
	// crash (panic out of Decide), stall, or perturb a process between
	// operations, and to meter per-process step budgets for wait-freedom
	// certification.  Install the hook before any Decide call; a nil f
	// removes it.
	SetStepHook(f func(proc int))
}

// liveOnly are the live protocols with no step machine of their own.
var liveOnly = map[string]func(n int, seed uint64) Protocol{
	"registers":              func(n int, seed uint64) Protocol { return NewRegisters(n, seed) },
	"counter-walk/registers": func(n int, seed uint64) Protocol { return NewCounterWalkFromRegisters(n, seed) },
}

// Resolve builds the live protocol name for n processes, its coin flips
// seeded by seed: "registers" and "counter-walk/registers" by hand, and
// every other name as the Machine over the registry's step machine
// (zoo.ResolveLive).  It refuses a name the registry does not know, an n
// the protocol does not support (packed-fetch&add above
// protocol.MaxPackedN), and a machine that halts some process before it
// decides (the two-process warm-ups at n ≠ 2).
func Resolve(name string, n int, seed uint64) (Protocol, error) {
	if mk := liveOnly[name]; mk != nil {
		return mk(n, seed), nil
	}
	proto, err := zoo.ResolveLive(zoo.Spec{Name: name, N: n})
	if err != nil {
		return nil, err
	}
	for pid := range n {
		if proto.Init(pid, n, 0).Action().Kind == sim.ActHalt {
			return nil, fmt.Errorf("consensus: %s halts process %d before it decides; it runs at most %d processes", name, pid, pid)
		}
	}
	return New(name, proto, n, seed), nil
}

// meter is the shared work-accounting and fault-injection core embedded
// in every live protocol: it counts shared-memory operations (Ops) and
// fires the optional per-operation step hook (SetStepHook).
type meter struct {
	ops  atomic.Int64
	hook func(proc int)
}

// Ops implements Protocol.
func (m *meter) Ops() int64 { return m.ops.Load() }

// SetStepHook implements Protocol.  The hook must be installed before
// Decide calls begin (goroutine creation orders the write).
func (m *meter) SetStepHook(f func(proc int)) { m.hook = f }

// count records k shared-memory operations by proc and fires the step
// hook once.  The hook may panic: count is only called at operation
// boundaries, where no protocol or object lock is held, so unwinding out
// of Decide leaves the shared objects consistent — a crash-stop.
func (m *meter) count(proc int, k int64) {
	m.ops.Add(k)
	if m.hook != nil {
		m.hook(proc)
	}
}

// flips returns proc's coin-flip generator for a protocol seeded by seed.
func flips(seed uint64, proc int) *rand.Rand { return rand.New(rand.NewPCG(seed, uint64(proc)+1)) }

// Machine runs a step machine (sim.Protocol) live: each Decide executes
// the process's State.Action loop, applying every operation to a live
// object (runtime.Object, which runs the type's checked Apply), firing
// the meter and step hook once per operation, and resolving every flip
// with the process's seeded generator.
type Machine struct {
	meter
	name  string
	proto sim.Protocol
	n     int
	seed  uint64
	objs  []*runtime.Object
	// counters realise the objects as register-based counters instead
	// (the Theorem 2.1 composition); nil for every other machine.
	counters []*counting.SnapshotCounter

	objects, registers int
}

// New returns proto's step machine run live by n processes under name.
// n is the process count every Init receives; proto's objects start at
// their types' initial values.
func New(name string, proto sim.Protocol, n int, seed uint64) *Machine {
	m := &Machine{name: name, proto: proto, n: n, seed: seed}
	for _, t := range proto.Objects() {
		m.objs = append(m.objs, runtime.NewObject(t, nil))
		if _, ok := t.(object.RegisterType); ok {
			m.registers++
		} else {
			m.objects++
		}
	}
	return m
}

// NewCounterWalkFromRegisters returns the Theorem 2.1 composition: the
// counter-walk machine with each of its three counters realised from n
// read-write registers (counting.SnapshotCounter), for 3n registers and
// zero non-register objects.  The counters do not wrap at the machine's
// bounds, which no legal execution reaches.
func NewCounterWalkFromRegisters(n int, seed uint64) *Machine {
	m := New("counter-walk/registers", protocol.NewCounterWalk(n), n, seed)
	m.counters = make([]*counting.SnapshotCounter, len(m.objs))
	m.objects, m.registers = 0, 0
	for i := range m.counters {
		m.counters[i] = counting.NewSnapshotCounter(n)
		m.registers += m.counters[i].Registers()
	}
	return m
}

// Name implements Protocol.
func (m *Machine) Name() string { return m.name }

// Objects implements Protocol.
func (m *Machine) Objects() int { return m.objects }

// Registers implements Protocol.
func (m *Machine) Registers() int { return m.registers }

// Decide implements Protocol.  A machine that halts proc before it
// decides is a defect of the protocol, and Decide panics naming both.
func (m *Machine) Decide(proc int, input int64) int64 {
	var rng *rand.Rand
	s := m.proto.Init(proc, m.n, input)
	for {
		a := s.Action()
		var result int64
		switch a.Kind {
		case sim.ActOperate:
			m.count(proc, 1)
			result = m.apply(proc, a.Obj, a.Op)
		case sim.ActFlip:
			if rng == nil {
				rng = flips(m.seed, proc)
			}
			result = rng.Int64N(a.Sides)
		case sim.ActDecide:
			return a.Value
		default:
			panic(fmt.Sprintf("consensus: %s: process %d halted without deciding", m.name, proc))
		}
		s = s.Advance(result)
	}
}

// apply performs op on object obj for proc and returns the response.
func (m *Machine) apply(proc, obj int, op object.Op) int64 {
	if m.counters != nil {
		c := m.counters[obj]
		switch op.Kind {
		case object.Read:
			return c.Read(proc)
		case object.Inc:
			c.Inc(proc)
		case object.Dec:
			c.Dec(proc)
		default:
			panic(fmt.Sprintf("consensus: %s: register counter has no %v", m.name, op))
		}
		return 0
	}
	return m.objs[obj].Do(proc, op)
}
