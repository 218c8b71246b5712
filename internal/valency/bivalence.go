package valency

import (
	"errors"
	"fmt"
	"slices"

	"randsync/internal/explore"
	"randsync/internal/sim"
)

// Valence classifies a configuration by the set of values decidable from
// it (over all schedules and coin outcomes).
type Valence uint8

const (
	// Univalent0: only 0 is reachable.
	Univalent0 Valence = iota
	// Univalent1: only 1 is reachable.
	Univalent1
	// Bivalent: both values are reachable.
	Bivalent
	// Undecidable: no decision is reachable (a defective protocol).
	Undecidable
)

// String implements fmt.Stringer.
func (v Valence) String() string {
	switch v {
	case Univalent0:
		return "0-valent"
	case Univalent1:
		return "1-valent"
	case Bivalent:
		return "bivalent"
	case Undecidable:
		return "undecidable"
	}
	return fmt.Sprintf("valence(%d)", uint8(v))
}

// BivalenceReport is the result of the valence analysis: the executable
// content of the bivalence arguments behind the impossibility results the
// paper builds on ([2, 15, 16, 20, 26]) and the reason its randomized
// protocols must admit non-terminating executions.
type BivalenceReport struct {
	// Initial is the valence of the initial configuration.
	Initial Valence
	// Configs is the number of distinct configurations analyzed.
	Configs int
	// Complete reports whether the reachable space fit in the budget;
	// valences are only trustworthy when true.
	Complete bool
	// BivalentCount is the number of bivalent configurations.
	BivalentCount int
	// ForeverBivalent is true if, from the initial configuration, the
	// adversary can keep the system bivalent forever: from every bivalent
	// configuration it controls a step (a process choice, plus a coin
	// outcome where applicable) leading to another bivalent
	// configuration, and a bivalent cycle or infinite path exists.
	ForeverBivalent bool
	// CriticalTrace, when the initial configuration is bivalent but the
	// adversary cannot stay bivalent forever, reaches a critical
	// configuration: bivalent, but every adversary-controlled step leads
	// to a univalent configuration.  Empty otherwise.
	CriticalTrace sim.Execution
}

// Bivalence analyzes the valence structure of proto on the given inputs.
//
// For a deterministic protocol, ForeverBivalent corresponds to the FLP/LA
// impossibility situation: the adversary schedules processes so that no
// decision is ever fixed.  For the randomized protocols in this
// repository, ForeverBivalent is expected — the paper notes that any
// randomized register consensus "must have non-terminating executions...
// with correspondingly small probabilities" — because the adversary
// controls coin outcomes in this analysis.
//
// One breadth-first pass admits every reachable configuration to an
// explore.KeySet over the bare encoding (sim.Config.AppendKey), so ids
// are discovery order and a configuration's successors are one run of
// ids; the other passes read that dense graph.  Per id it keeps the
// parent's id, the discovering step and the values decided there; a
// configuration's clone lives only while it is queued.
//
// Of the Options it honours MaxConfigs (through Budget) only.  A crash
// schedule is refused, not ignored: the keys lack AppendVisitKey's crash
// allowance, so distinct crash futures would merge.  The engine knobs
// and NoSymmetry do not apply: the analysis is serial, in RAM, and never
// reduced.
func Bivalence(proto sim.Protocol, inputs []int64, opts Options) (*BivalenceReport, error) {
	if len(opts.Crash) > 0 {
		return nil, errors.New("valency: Bivalence does not support a crash schedule")
	}
	// Phase 1: materialize the reachable configuration graph,
	// breadth-first, so the discovery tree holds a shortest execution to
	// every configuration.  Each edge k→s is logged reversed, as
	// {From: s, To: k}; ids are dequeued in admission order, so k's
	// successors are the From ends of arcs[off[k]:off[k+1]].
	var (
		keys   explore.KeySet
		parent = []int64{-1}
		step   = []sim.Event{{}} // step[v] leads from parent[v] to v
		arcs   []explore.Edge
		off    []int64
	)
	queue := []*sim.Config{sim.NewConfig(proto, inputs)}
	buf := queue[0].AppendKey(nil)
	keys.Admit(sim.FingerprintBytes(buf), buf)
	flags := []uint8{decidedBits(queue[0])}
	for len(queue) > 0 {
		if keys.Len() > opts.Budget() {
			return &BivalenceReport{Configs: keys.Len()}, nil
		}
		c := queue[0]
		queue[0], queue = nil, queue[1:]
		k := int64(len(off))
		off = append(off, int64(len(arcs)))
		_, err := opts.Successors(c, func(_ int, _ int64, ev sim.Event) bool {
			buf = c.AppendKey(buf[:0])
			id, fresh := keys.Admit(sim.FingerprintBytes(buf), buf)
			if fresh {
				parent, step = append(parent, k), append(step, ev)
				flags = append(flags, decidedBits(c))
				queue = append(queue, c.Clone())
			}
			arcs = append(arcs, explore.Edge{From: id, To: k})
			return false
		})
		if err != nil {
			return nil, fmt.Errorf("valency: bivalence step: %w", err)
		}
	}
	n := int64(keys.Len())
	off = append(off, int64(len(arcs)))

	// Phase 2: propagate reachable decisions backwards to the least
	// fixpoint, over a worklist that starts with every configuration and
	// takes back each one whose reach bits grow.  The reversed arcs give
	// each configuration's predecessors: pred[poff[v]:poff[v+1]].
	poff, pred := explore.Adjacency(int(n), explore.EdgeLog{arcs})
	work := make([]int64, n)
	for v := range work {
		work[v] = int64(v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range pred[poff[v]:poff[v+1]] {
			if add := flags[v] &^ flags[p] & bivalent; add != 0 {
				flags[p] |= add
				work = append(work, p)
			}
		}
	}
	valence := func(v int64) Valence {
		return [...]Valence{Undecidable, Univalent0, Univalent1, Bivalent}[flags[v]&bivalent]
	}
	rep := &BivalenceReport{Initial: valence(0), Configs: int(n), Complete: true}
	for v := range n {
		if valence(v) == Bivalent {
			rep.BivalentCount++
		}
	}
	if rep.Initial != Bivalent {
		return rep, nil
	}

	// Phase 3: can the adversary stay bivalent forever?  It can iff a
	// cycle of bivalent configurations is reachable from the initial one
	// through bivalent configurations: the graph is finite, so an endless
	// bivalent path must close one.
	var bi []explore.Edge
	flags[0] |= reached
	for stack := []int64{0}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range arcs[off[v]:off[v+1]] {
			if s := a.From; valence(s) == Bivalent {
				bi = append(bi, explore.Edge{From: v, To: s})
				if flags[s]&reached == 0 {
					flags[s] |= reached
					stack = append(stack, s)
				}
			}
		}
	}
	if explore.HasCycle(int(n), explore.EdgeLog{bi}) {
		rep.ForeverBivalent = true
		return rep, nil
	}

	// Phase 4: the adversary is eventually forced out of bivalence —
	// find a critical configuration (bivalent, all successors univalent)
	// by greedy descent through bivalent successors, in successor order.
	v := int64(0)
	flags[v] |= descended
	for {
		i := slices.IndexFunc(arcs[off[v]:off[v+1]], func(a explore.Edge) bool {
			return valence(a.From) == Bivalent && flags[a.From]&descended == 0
		})
		if i < 0 {
			break
		}
		v = arcs[off[v]+int64(i)].From
		flags[v] |= descended
	}
	// The critical configuration's trace is its path in the discovery
	// tree.
	for ; v != 0; v = parent[v] {
		rep.CriticalTrace = append(rep.CriticalTrace, step[v])
	}
	slices.Reverse(rep.CriticalTrace)
	return rep, nil
}

// Flag bits of Bivalence's passes, per configuration.
const (
	reach0    uint8 = 1 << iota // a configuration where 0 is decided is reachable
	reach1                      // likewise for 1
	reached                     // phase 3: reached through bivalent configurations
	descended                   // phase 4: visited by the greedy descent

	bivalent = reach0 | reach1
)

// decidedBits returns the reach bits of the values decided in c.
func decidedBits(c *sim.Config) (b uint8) {
	for pid, d := range c.Decided {
		if v := c.Decision[pid]; d && (v == 0 || v == 1) {
			b |= reach0 << v
		}
	}
	return b
}
