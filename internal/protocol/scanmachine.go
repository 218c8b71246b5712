package protocol

import (
	"fmt"
	"math/rand/v2"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// ScanMachine is a randomly generated family of flawed consensus protocols
// over historyless objects, generalizing Flood: per preference, a process
// follows a random *program* — a permutation of nontrivial operations over
// the objects — and between operations scans all objects, deciding its
// preference once a scan shows its own marks on every object.
//
// Nondeterministic solo termination holds by construction: a solo process
// sees the all-own view after performing its full program.  The decision
// predicate is fixed; the object types and the programs are random, so the
// family sweeps the adversary across many program geometries (the "random
// protocol generation" leg of the reproduction's coverage argument).
//
// Like every solo-terminating protocol over few historyless objects, each
// generated instance is necessarily inconsistent (Theorem 3.7); package
// core's tests verify the adversary breaks every sampled instance.
type ScanMachine struct {
	// Types are the historyless objects used.
	Types []object.Type
	// Program[p] is the operation order for preference p (a permutation
	// of object indexes, possibly with repeats).
	Program [2][]int
	// Seed identifies the instance in names and test logs.
	Seed uint64
}

var _ sim.Protocol = ScanMachine{}

// GenerateScanMachine returns a random ScanMachine over r objects drawn
// from the historyless types, seeded deterministically.  Only the object
// types and the two programs are drawn: every generated machine decides
// on the all-own view alone, so the family sweeps programs, not
// decision predicates.
func GenerateScanMachine(r int, seed uint64) ScanMachine {
	rng := rand.New(rand.NewPCG(seed, 0xABCD))
	types := make([]object.Type, r)
	for i := range types {
		switch rng.IntN(3) {
		case 0:
			types[i] = object.RegisterType{}
		case 1:
			types[i] = object.SwapRegisterType{}
		default:
			types[i] = object.TestAndSetType{}
		}
	}
	m := ScanMachine{Types: types, Seed: seed}
	for p := 0; p < 2; p++ {
		// A random permutation, plus a few random repeats for variety.
		prog := rng.Perm(r)
		for extra := rng.IntN(r); extra > 0; extra-- {
			prog = append(prog, rng.IntN(r))
		}
		m.Program[p] = prog
	}
	return m
}

// Name implements sim.Protocol.
func (m ScanMachine) Name() string {
	return fmt.Sprintf("scan-machine(r=%d,seed=%d)", len(m.Types), m.Seed)
}

// Objects implements sim.Protocol.
func (m ScanMachine) Objects() []object.Type { return m.Types }

// Identical implements sim.Protocol.
func (ScanMachine) Identical() bool { return true }

// Init implements sim.Protocol.
func (m ScanMachine) Init(pid, n int, input int64) sim.State {
	return smState{proto: m, pref: input}
}

// markOp returns the nontrivial operation installing pref's mark on
// object i, and the value the object then holds.
func (m ScanMachine) markOp(pref int64, i int) (object.Op, int64) {
	switch m.Types[i].(type) {
	case object.RegisterType:
		return object.Op{Kind: object.Write, Arg: pref + 1}, pref + 1
	case object.SwapRegisterType:
		return object.Op{Kind: object.Swap, Arg: pref + 1}, pref + 1
	case object.TestAndSetType:
		return object.Op{Kind: object.TestAndSet}, 1
	}
	panic(fmt.Sprintf("protocol: scan machine over non-historyless type %s", m.Types[i].Name()))
}

// ownView reports whether the view shows pref's marks everywhere.
func (m ScanMachine) ownView(pref int64, view []int64) bool {
	for i, v := range view {
		_, want := m.markOp(pref, i)
		if v != want {
			return false
		}
	}
	return true
}

// smState: the process alternates between performing the next program
// operation and scanning all objects.
type smState struct {
	proto ScanMachine
	pref  int64
	pc    int     // next program position, in [0, len(program))
	scan  []int64 // view being collected; nil before the first operation
}

var _ sim.State = smState{}

// Action implements sim.State.
func (s smState) Action() sim.Action {
	if s.scan == nil {
		// Perform the next program operation.
		prog := s.proto.Program[s.pref]
		obj := prog[s.pc%len(prog)]
		op, _ := s.proto.markOp(s.pref, obj)
		return sim.Action{Kind: sim.ActOperate, Obj: obj, Op: op}
	}
	if len(s.scan) < len(s.proto.Types) {
		return sim.Action{Kind: sim.ActOperate, Obj: len(s.scan),
			Op: object.Op{Kind: object.Read}}
	}
	// Scan complete: decide or continue the program.
	if s.proto.ownView(s.pref, s.scan) {
		return sim.Action{Kind: sim.ActDecide, Value: s.pref}
	}
	// Continue: next operation.
	prog := s.proto.Program[s.pref]
	obj := prog[s.pc%len(prog)]
	op, _ := s.proto.markOp(s.pref, obj)
	return sim.Action{Kind: sim.ActOperate, Obj: obj, Op: op}
}

// Advance implements sim.State.
func (s smState) Advance(result int64) sim.State {
	if s.scan == nil {
		// Just performed a program operation: start a scan.
		s.pc = (s.pc + 1) % len(s.proto.Program[s.pref])
		s.scan = make([]int64, 0, len(s.proto.Types))
		return s
	}
	if len(s.scan) < len(s.proto.Types) {
		scan := make([]int64, len(s.scan)+1)
		copy(scan, s.scan)
		scan[len(s.scan)] = result
		s.scan = scan
		return s
	}
	if s.proto.ownView(s.pref, s.scan) {
		return sim.Halted{}
	}
	// Just performed the next program op after a rejected scan.
	s.pc = (s.pc + 1) % len(s.proto.Program[s.pref])
	s.scan = make([]int64, 0, len(s.proto.Types))
	return s
}
