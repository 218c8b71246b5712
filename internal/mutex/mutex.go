// Package mutex implements classical shared-memory mutual exclusion
// algorithms over live shared objects (runtime.Object).
//
// The paper's proof technique descends from Burns and Lynch's lower bound
// on the number of read-write registers needed for mutual exclusion [14]
// (§1: "Our proof technique is most closely related to the elegant method
// introduced by Burns and Lynch...").  This package supplies the
// algorithmic side of that lineage:
//
//   - Burns' one-bit algorithm: deadlock-free n-process mutual exclusion
//     from exactly n single-bit registers — matching the Burns–Lynch
//     lower bound, which says n registers are necessary;
//   - Peterson's algorithm for two processes (three registers);
//   - a tournament lock lifting Peterson to n processes;
//   - a test-and-set-style spin lock over a single swap register,
//     illustrating the §4 contrast: one historyless object suffices for
//     mutual exclusion (a blocking problem), while consensus — wait-free —
//     needs Ω(√n) of them.
//
// All locks are blocking (mutual exclusion is inherently not wait-free):
// Lock busy-waits on atomic reads of its objects and never yields the
// processor.
package mutex

import (
	"fmt"

	"randsync/internal/object"
	"randsync/internal/runtime"
)

// Lock is an n-process mutual exclusion object.
type Lock interface {
	// Name identifies the algorithm.
	Name() string
	// Lock acquires the critical section on behalf of proc.
	Lock(proc int)
	// Unlock releases it.
	Unlock(proc int)
	// Registers reports how many read-write registers the lock uses
	// (0 for locks built on stronger objects).
	Registers() int
}

// Burns is Burns' one-bit algorithm: deadlock-free mutual exclusion for n
// processes from n single-bit read-write registers.
type Burns struct {
	n    int
	flag []*runtime.Object
}

var _ Lock = (*Burns)(nil)

// NewBurns returns a Burns lock for n processes.
func NewBurns(n int) *Burns {
	b := &Burns{n: n, flag: make([]*runtime.Object, n)}
	for i := range b.flag {
		b.flag[i] = newRegister()
	}
	return b
}

// newRegister returns a read-write register, initially 0.
func newRegister() *runtime.Object { return runtime.NewObject(object.RegisterType{}, nil) }

// write sets register reg to v on behalf of proc.
func write(reg *runtime.Object, proc int, v int64) {
	reg.Do(proc, object.Op{Kind: object.Write, Arg: v})
}

// Name implements Lock.
func (b *Burns) Name() string { return fmt.Sprintf("burns(n=%d)", b.n) }

// Registers implements Lock.
func (b *Burns) Registers() int { return b.n }

// Lock implements Lock.
func (b *Burns) Lock(proc int) {
	for {
		write(b.flag[proc], proc, 0)
		if b.anySet(proc, 0, proc) {
			continue
		}
		write(b.flag[proc], proc, 1)
		if b.anySet(proc, 0, proc) {
			continue
		}
		// Defer to higher-indexed contenders until they pass.
		for b.anySet(proc, proc+1, b.n) {
		}
		return
	}
}

// anySet reports whether some flag in [lo, hi) is raised.
func (b *Burns) anySet(proc, lo, hi int) bool {
	for j := lo; j < hi; j++ {
		if b.flag[j].Read(proc) == 1 {
			return true
		}
	}
	return false
}

// Unlock implements Lock.
func (b *Burns) Unlock(proc int) {
	write(b.flag[proc], proc, 0)
}

// Peterson is Peterson's two-process mutual exclusion from three
// registers (two flags and a turn register).
type Peterson struct {
	flag [2]*runtime.Object
	turn *runtime.Object
}

var _ Lock = (*Peterson)(nil)

// NewPeterson returns a two-process Peterson lock.
func NewPeterson() *Peterson {
	return &Peterson{
		flag: [2]*runtime.Object{newRegister(), newRegister()},
		turn: newRegister(),
	}
}

// Name implements Lock.
func (*Peterson) Name() string { return "peterson" }

// Registers implements Lock.
func (*Peterson) Registers() int { return 3 }

// Lock implements Lock; proc must be 0 or 1.
func (p *Peterson) Lock(proc int) {
	other := 1 - proc
	write(p.flag[proc], proc, 1)
	write(p.turn, proc, int64(other))
	for p.flag[other].Read(proc) == 1 && p.turn.Read(proc) == int64(other) {
	}
}

// Unlock implements Lock.
func (p *Peterson) Unlock(proc int) {
	write(p.flag[proc], proc, 0)
}

// Tournament lifts Peterson's algorithm to n processes with a binary tree
// of two-process locks: a process acquires the locks on the path from its
// leaf to the root, playing side (node parity) at each level.  It is
// starvation-free: each Peterson node is fair, so progress composes up
// the tree.
type Tournament struct {
	n      int
	levels int
	nodes  []*Peterson // heap layout: node 1 is the root
}

var _ Lock = (*Tournament)(nil)

// NewTournament returns a tournament lock for n processes.
func NewTournament(n int) *Tournament {
	levels := 0
	for 1<<levels < n {
		levels++
	}
	size := 1 << levels // leaves
	t := &Tournament{n: n, levels: levels, nodes: make([]*Peterson, size)}
	for i := 1; i < size; i++ {
		t.nodes[i] = NewPeterson()
	}
	return t
}

// Name implements Lock.
func (t *Tournament) Name() string { return fmt.Sprintf("tournament(n=%d)", t.n) }

// Registers implements Lock.
func (t *Tournament) Registers() int { return 3 * (len(t.nodes) - 1) }

// path returns the tree nodes from proc's leaf parent to the root, with
// the side proc plays at each.
func (t *Tournament) path(proc int) []pathStep {
	steps := make([]pathStep, 0, t.levels)
	node := len(t.nodes) + proc // virtual leaf index
	for node > 1 {
		side := node & 1
		node >>= 1
		steps = append(steps, pathStep{node: node, side: side})
	}
	return steps
}

type pathStep struct{ node, side int }

// Lock implements Lock.
func (t *Tournament) Lock(proc int) {
	for _, s := range t.path(proc) {
		t.nodes[s.node].Lock(s.side)
	}
}

// Unlock implements Lock; releases in the reverse (root-first) order.
func (t *Tournament) Unlock(proc int) {
	steps := t.path(proc)
	for i := len(steps) - 1; i >= 0; i-- {
		t.nodes[steps[i].node].Unlock(steps[i].side)
	}
}

// SpinLock is a test-and-test-and-set lock over a single swap register —
// one historyless object.  Mutual exclusion from one historyless object is
// easy; the paper's point is that wait-free consensus is not.
type SpinLock struct {
	s *runtime.Object
}

var _ Lock = (*SpinLock)(nil)

// NewSpinLock returns a swap-register spin lock.
func NewSpinLock() *SpinLock {
	return &SpinLock{s: runtime.NewObject(object.SwapRegisterType{}, nil)}
}

// Name implements Lock.
func (*SpinLock) Name() string { return "spin(swap)" }

// Registers implements Lock.
func (*SpinLock) Registers() int { return 0 }

// Lock implements Lock.
func (l *SpinLock) Lock(proc int) {
	for {
		for l.s.Read(proc) == 1 {
		}
		if l.s.Do(proc, object.Op{Kind: object.Swap, Arg: 1}) == 0 {
			return
		}
	}
}

// Unlock implements Lock.
func (l *SpinLock) Unlock(proc int) {
	write(l.s, proc, 0)
}
