package protocol

import (
	"fmt"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// CounterWalk is the randomized n-process binary consensus protocol from
// three bounded counters, after Aspnes [7] (the published basis of
// Theorem 4.2): "the first two keep track of the number of processes with
// input 0 and input 1 respectively, and the third is used as the cursor for
// a random walk."
//
// Each process first announces its input by incrementing C₀ or C₁, then
// repeatedly reads the cursor K and
//
//   - decides 1 if K ≥ 3n and 0 if K ≤ −3n (the absorbing barriers);
//   - drifts deterministically toward the nearer barrier when |K| ≥ n;
//   - otherwise consults the input counters: if no process with input 1
//     has announced it pushes the cursor down (symmetrically up), so that
//     with unanimous inputs the walk is a one-way march and validity holds;
//   - otherwise flips a fair coin and moves the cursor one step.
//
// Consistency argument (mirrors [7]): between a process's read of K and
// its subsequent move there is at most one "in-flight" move per process,
// so once K reaches 2n every later read sees K ≥ 2n − n = n and every
// later move is upward; hence K can never again fall below n, and in
// particular no process can ever read K ≤ −3n once some process has read
// K ≥ 3n.  The valency checker verifies consistency and validity
// exhaustively for small n (E6, E11); termination is probabilistic (the
// random walk is absorbed with probability 1).
//
// The counters are bounded — C₀, C₁ in [0, n] and K in [−4n, 4n] — and the
// bounds are never exercised in legal executions (K overshoots the ±3n
// barrier by at most the n in-flight moves).
type CounterWalk struct {
	// N is the number of processes the instance is configured for; the
	// barrier positions depend on it.
	N int
}

var _ sim.Protocol = CounterWalk{}

// NewCounterWalk returns a CounterWalk instance for n processes.
func NewCounterWalk(n int) CounterWalk { return CounterWalk{N: n} }

// Name implements sim.Protocol.
func (p CounterWalk) Name() string { return fmt.Sprintf("counter-walk(n=%d)", p.N) }

// Objects implements sim.Protocol: C0, C1 and the cursor K.
func (p CounterWalk) Objects() []object.Type {
	n := int64(p.N)
	return []object.Type{
		object.BoundedCounterType{Lo: 0, Hi: n},
		object.BoundedCounterType{Lo: 0, Hi: n},
		object.BoundedCounterType{Lo: -4 * n, Hi: 4 * n},
	}
}

// Identical implements sim.Protocol.
func (CounterWalk) Identical() bool { return true }

// Init implements sim.Protocol.
func (p CounterWalk) Init(pid, n int, input int64) sim.State {
	return walkState{n: int64(p.N), input: input, pc: walkAnnounce}
}

// Program counters of walkState.
const (
	walkAnnounce uint8 = iota // inc C_input
	walkReadK                 // read cursor
	walkReadC0                // read C0
	walkReadC1                // read C1
	walkFlip                  // fair coin
	walkUp                    // inc cursor
	walkDown                  // dec cursor
)

const (
	objC0 = 0
	objC1 = 1
	objK  = 2
)

type walkState struct {
	n     int64
	input int64
	a     int64 // last read of C0
	pc    uint8
}

var _ sim.State = walkState{}

// Action implements sim.State.
func (s walkState) Action() sim.Action {
	switch s.pc {
	case walkAnnounce:
		obj := objC0
		if s.input == 1 {
			obj = objC1
		}
		return sim.Action{Kind: sim.ActOperate, Obj: obj, Op: object.Op{Kind: object.Inc}}
	case walkReadK:
		return sim.Action{Kind: sim.ActOperate, Obj: objK, Op: object.Op{Kind: object.Read}}
	case walkReadC0:
		return sim.Action{Kind: sim.ActOperate, Obj: objC0, Op: object.Op{Kind: object.Read}}
	case walkReadC1:
		return sim.Action{Kind: sim.ActOperate, Obj: objC1, Op: object.Op{Kind: object.Read}}
	case walkFlip:
		return sim.Action{Kind: sim.ActFlip, Sides: 2}
	case walkUp:
		return sim.Action{Kind: sim.ActOperate, Obj: objK, Op: object.Op{Kind: object.Inc}}
	case walkDown:
		return sim.Action{Kind: sim.ActOperate, Obj: objK, Op: object.Op{Kind: object.Dec}}
	}
	panic(fmt.Sprintf("protocol: walkState with unknown pc %d", s.pc))
}

// Advance implements sim.State.
func (s walkState) Advance(result int64) sim.State {
	switch s.pc {
	case walkAnnounce:
		s.pc = walkReadK
		return s
	case walkReadK:
		k := result
		switch {
		case k >= 3*s.n:
			return decideState{v: 1}
		case k <= -3*s.n:
			return decideState{v: 0}
		case k >= s.n:
			s.pc = walkUp
		case k <= -s.n:
			s.pc = walkDown
		default:
			s.pc = walkReadC0
		}
		return s
	case walkReadC0:
		s.a = result
		s.pc = walkReadC1
		return s
	case walkReadC1:
		b := result
		switch {
		case b == 0:
			// No process with input 1 has announced; march down.
			s.pc = walkDown
		case s.a == 0:
			// No process with input 0 has announced; march up.
			s.pc = walkUp
		default:
			s.pc = walkFlip
		}
		return s
	case walkFlip:
		if result == 0 {
			s.pc = walkDown
		} else {
			s.pc = walkUp
		}
		return s
	case walkUp, walkDown:
		s.pc = walkReadK
		return s
	}
	panic(fmt.Sprintf("protocol: walkState advance with unknown pc %d", s.pc))
}
