package protocol

import (
	"fmt"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// Field layout of the packed fetch&add word: the two announcement tallies
// and the random-walk cursor of the CounterWalk protocol, packed into one
// int64 so that a single fetch&add register suffices (Theorem 4.4).
//
//	bits  0..19  count of announced 0-inputs           (≤ n)
//	bits 20..39  count of announced 1-inputs           (≤ n)
//	bits 40..62  cursor + cursorOffset                 (|cursor| ≤ 4n)
//
// A fetch&add returns the previous value, i.e. an atomic snapshot of all
// three fields; fetch&add(0) reads the word without changing it.
const (
	fieldBits    = 20
	unitC0       = 1
	unitC1       = 1 << fieldBits
	unitCursor   = 1 << (2 * fieldBits)
	fieldMask    = 1<<fieldBits - 1
	cursorOffset = 1 << (fieldBits + 2) // keeps the cursor field positive
	// MaxPackedN is the largest n the packed layout supports.
	MaxPackedN = 1<<(fieldBits-3) - 1
)

// packedInit is the initial word: zero tallies, centered cursor.
const packedInit = int64(cursorOffset) * unitCursor

// unpack splits a packed word into (count0, count1, cursor).
func unpack(w int64) (a, b, k int64) {
	a = w & fieldMask
	b = (w >> fieldBits) & fieldMask
	k = (w >> (2 * fieldBits)) - cursorOffset
	return a, b, k
}

// pack builds a packed word; the inverse of unpack (used by tests).
func pack(a, b, k int64) int64 {
	return a + b<<fieldBits + (k+cursorOffset)<<(2*fieldBits)
}

// PackedFetchAdd is randomized n-process binary consensus from a single
// fetch&add register (Theorem 4.4).
//
// It is the CounterWalk protocol with the three counters packed into the
// fields of one fetch&add word.  The paper obtains Theorem 4.4 by noting
// that one fetch&add register implements a counter and invoking the
// one-counter form of Theorem 4.2 (which rests on an unpublished
// refinement, Aspnes [8]); packing realizes the same single-instance claim
// directly with the published three-counter protocol, and the fetch&add's
// combined read-modify-write only strengthens the walk's consistency
// argument, since each read is an atomic snapshot of all three fields.
type PackedFetchAdd struct {
	// N is the number of processes; the barrier positions depend on it.
	N int
}

var _ sim.Protocol = PackedFetchAdd{}

// NewPackedFetchAdd returns a PackedFetchAdd instance for n processes.
// n must be at most MaxPackedN.
func NewPackedFetchAdd(n int) PackedFetchAdd { return PackedFetchAdd{N: n} }

// Name implements sim.Protocol.
func (p PackedFetchAdd) Name() string { return fmt.Sprintf("packed-fetch&add(n=%d)", p.N) }

// Objects implements sim.Protocol: a single fetch&add register.
func (p PackedFetchAdd) Objects() []object.Type {
	return []object.Type{object.FetchAddType{Initial: packedInit}}
}

// Identical implements sim.Protocol.
func (PackedFetchAdd) Identical() bool { return true }

// Init implements sim.Protocol.
func (p PackedFetchAdd) Init(pid, n int, input int64) sim.State {
	return pfaState{n: int64(p.N), input: input, pc: pfaAnnounce}
}

// Program counters of pfaState.
const (
	pfaAnnounce uint8 = iota // add the announcement unit
	pfaRead                  // fetch&add(0): snapshot
	pfaFlip                  // fair coin
	pfaUp                    // cursor +1
	pfaDown                  // cursor -1
)

type pfaState struct {
	n     int64
	input int64
	pc    uint8
}

var _ sim.State = pfaState{}

// Action implements sim.State.
func (s pfaState) Action() sim.Action {
	fa := func(delta int64) sim.Action {
		return sim.Action{Kind: sim.ActOperate, Obj: 0,
			Op: object.Op{Kind: object.FetchAdd, Arg: delta}}
	}
	switch s.pc {
	case pfaAnnounce:
		if s.input == 1 {
			return fa(unitC1)
		}
		return fa(unitC0)
	case pfaRead:
		return fa(0)
	case pfaFlip:
		return sim.Action{Kind: sim.ActFlip, Sides: 2}
	case pfaUp:
		return fa(unitCursor)
	case pfaDown:
		return fa(-unitCursor)
	}
	panic(fmt.Sprintf("protocol: pfaState with unknown pc %d", s.pc))
}

// Advance implements sim.State.
func (s pfaState) Advance(result int64) sim.State {
	switch s.pc {
	case pfaAnnounce, pfaUp, pfaDown:
		s.pc = pfaRead
		return s
	case pfaRead:
		a, b, k := unpack(result)
		// Adjust for our own pending announcement: the snapshot predates
		// this fetch&add only when pc was pfaAnnounce, which is handled
		// above; here the snapshot is current.
		switch {
		case k >= 3*s.n:
			return decideState{v: 1}
		case k <= -3*s.n:
			return decideState{v: 0}
		case k >= s.n:
			s.pc = pfaUp
		case k <= -s.n:
			s.pc = pfaDown
		case b == 0:
			s.pc = pfaDown
		case a == 0:
			s.pc = pfaUp
		default:
			s.pc = pfaFlip
		}
		return s
	case pfaFlip:
		if result == 0 {
			s.pc = pfaDown
		} else {
			s.pc = pfaUp
		}
		return s
	}
	panic(fmt.Sprintf("protocol: pfaState advance with unknown pc %d", s.pc))
}
