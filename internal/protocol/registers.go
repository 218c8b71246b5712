package protocol

import (
	"fmt"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// RegisterConsensus is randomized n-process binary consensus from O(n)
// read-write registers, with the round structure of Aspnes and Herlihy [9]
// in its modern adopt-commit formulation: each round runs a conciliator
// (processes mark their preference and lean on a coin flip to converge)
// followed by a wait-free adopt-commit object built from single-writer
// registers (Gafni-style two-phase collect); a process that commits
// decides, and commitment forces every other process to adopt the same
// value in that round or the next.
//
// Safety (consistency and validity) holds for arbitrary coin outcomes —
// exactly the property the valency checker verifies exhaustively for
// small n and bounded rounds — while the coin only drives the expected
// round count.  In this simulator version the conciliator uses each
// process's local flip directly (bounded state, so the checker's space is
// finite).  The live version, consensus.Registers, is therefore not this
// machine run live but a separate, hand-written algorithm: its
// conciliator flips the weak shared coin of package coin (coin.WeakShared
// over a round-tagged collect of n more registers), as in [9], whose
// unbounded walk no finite checked space could hold.
//
// Objects (2n+2 registers): A[0..n-1] and B[0..n-1] are the adopt-commit
// phase registers of the n processes (single-writer, holding packed
// (round, value) and (round, flag, value)); proposed[0] and proposed[1]
// hold the latest round in which each value was proposed.
//
// MaxRounds bounds the round counter so the reachable configuration space
// is finite: a process that exceeds it spins (reads forever) instead of
// deciding.  Spinning preserves safety and appears as livelock in the
// checker; real deployments set it high enough to never matter (the live
// version has no cap).
type RegisterConsensus struct {
	// N is the number of processes.
	N int
	// MaxRounds caps the round counter (0 means 1<<40).
	MaxRounds int64
}

var _ sim.Protocol = RegisterConsensus{}

// NewRegisterConsensus returns an instance for n processes with the given
// round cap.
func NewRegisterConsensus(n int, maxRounds int64) RegisterConsensus {
	return RegisterConsensus{N: n, MaxRounds: maxRounds}
}

func (p RegisterConsensus) maxRounds() int64 {
	if p.MaxRounds <= 0 {
		return 1 << 40
	}
	return p.MaxRounds
}

// Name implements sim.Protocol.
func (p RegisterConsensus) Name() string {
	return fmt.Sprintf("register-consensus(n=%d)", p.N)
}

// Objects implements sim.Protocol.
func (p RegisterConsensus) Objects() []object.Type {
	types := make([]object.Type, 2*p.N+2)
	for i := range types {
		types[i] = object.RegisterType{}
	}
	return types
}

// Identical implements sim.Protocol: processes write their own slots.
func (RegisterConsensus) Identical() bool { return false }

// Init implements sim.Protocol.
func (p RegisterConsensus) Init(pid, n int, input int64) sim.State {
	return rcState{
		proto: p, pid: pid, pref: input, round: 1, phase: rcMark,
		trueVal: -1,
	}
}

// Register layout helpers.
func (p RegisterConsensus) objA(i int) int          { return i }
func (p RegisterConsensus) objB(i int) int          { return p.N + i }
func (p RegisterConsensus) objProposed(v int64) int { return 2*p.N + int(v) }

// packA encodes (round, value); 0 means never written.
func packA(r, v int64) int64 { return r<<1 | v }

func unpackA(x int64) (r, v int64) { return x >> 1, x & 1 }

// packB encodes (round, flag, value).
func packB(r int64, flag bool, v int64) int64 {
	f := int64(0)
	if flag {
		f = 1
	}
	return r<<2 | f<<1 | v
}

func unpackB(x int64) (r int64, flag bool, v int64) {
	return x >> 2, x>>1&1 == 1, x & 1
}

// Phases of one round.
const (
	rcMark     uint8 = iota // write proposed[pref] := round
	rcFlip                  // local coin flip
	rcReadMark              // read proposed[coin]; adopt if marked this round
	rcWriteA                // write A[pid] := (round, pref)
	rcCollectA              // read A[0..n-1], tracking conflicts
	rcWriteB                // write B[pid] := (round, flag, pref)
	rcCollectB              // read B[0..n-1], tracking commit conditions
	rcSpin                  // round cap exceeded: read forever (livelock)
)

type rcState struct {
	proto RegisterConsensus
	pid   int
	pref  int64
	round int64
	phase uint8
	idx   int // collect index

	coin      int64 // conciliator flip outcome
	conflict  bool  // A-collect: saw another value or a later round
	anyHigher bool  // B-collect: saw a later round
	anyFalseR bool  // B-collect: saw a round-r entry with flag false
	trueVal   int64 // B-collect: value of a round-r flag-true entry (-1 none)
}

var _ sim.State = rcState{}

// Action implements sim.State.
func (s rcState) Action() sim.Action {
	p := s.proto
	switch s.phase {
	case rcMark:
		return sim.Action{Kind: sim.ActOperate, Obj: p.objProposed(s.pref),
			Op: object.Op{Kind: object.Write, Arg: s.round}}
	case rcFlip:
		return sim.Action{Kind: sim.ActFlip, Sides: 2}
	case rcReadMark:
		return sim.Action{Kind: sim.ActOperate, Obj: p.objProposed(s.coin),
			Op: object.Op{Kind: object.Read}}
	case rcWriteA:
		return sim.Action{Kind: sim.ActOperate, Obj: p.objA(s.pid),
			Op: object.Op{Kind: object.Write, Arg: packA(s.round, s.pref)}}
	case rcCollectA:
		return sim.Action{Kind: sim.ActOperate, Obj: p.objA(s.idx),
			Op: object.Op{Kind: object.Read}}
	case rcWriteB:
		return sim.Action{Kind: sim.ActOperate, Obj: p.objB(s.pid),
			Op: object.Op{Kind: object.Write, Arg: packB(s.round, !s.conflict, s.pref)}}
	case rcCollectB:
		return sim.Action{Kind: sim.ActOperate, Obj: p.objB(s.idx),
			Op: object.Op{Kind: object.Read}}
	case rcSpin:
		return sim.Action{Kind: sim.ActOperate, Obj: p.objA(0),
			Op: object.Op{Kind: object.Read}}
	}
	panic(fmt.Sprintf("protocol: rcState with unknown phase %d", s.phase))
}

// Advance implements sim.State.
func (s rcState) Advance(result int64) sim.State {
	switch s.phase {
	case rcMark:
		s.phase = rcFlip
		return s
	case rcFlip:
		s.coin = result
		s.phase = rcReadMark
		return s
	case rcReadMark:
		// Adopt the coin's value if it was proposed in this round (or a
		// later one — a later mark implies it was proposed even earlier
		// by that process's lineage, and adopting a marked value keeps
		// validity since marks are made only for held preferences).
		if result >= s.round {
			s.pref = s.coin
		}
		s.phase = rcWriteA
		return s
	case rcWriteA:
		s.phase = rcCollectA
		s.idx = 0
		s.conflict = false
		return s
	case rcCollectA:
		r, v := unpackA(result)
		if r > s.round || (r == s.round && v != s.pref) {
			s.conflict = true
		}
		s.idx++
		if s.idx == s.proto.N {
			s.phase = rcWriteB
		}
		return s
	case rcWriteB:
		s.phase = rcCollectB
		s.idx = 0
		s.anyHigher = false
		s.anyFalseR = false
		s.trueVal = -1
		return s
	case rcCollectB:
		r, flag, v := unpackB(result)
		switch {
		case r > s.round:
			s.anyHigher = true
		case r == s.round && !flag:
			s.anyFalseR = true
		case r == s.round && flag:
			s.trueVal = v
		}
		s.idx++
		if s.idx < s.proto.N {
			return s
		}
		// Round outcome.
		if !s.anyHigher && !s.anyFalseR {
			// Every visible round-r entry (including our own) carries a
			// true flag; by the uniqueness of flag-true values they all
			// equal our preference: commit.
			return decideState{v: s.pref}
		}
		if s.trueVal >= 0 {
			// Someone may have committed trueVal: adopt it.
			s.pref = s.trueVal
		}
		s.round++
		if s.round > s.proto.maxRounds() {
			s.phase = rcSpin
			return s
		}
		s.phase = rcMark
		return s
	case rcSpin:
		return s
	}
	panic(fmt.Sprintf("protocol: rcState advance with unknown phase %d", s.phase))
}
