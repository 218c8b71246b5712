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
// ids; the other passes read that dense graph in place.  Per id it keeps
// the parent's id, the discovering move (a pid and a coin outcome) and
// the values decided there; a configuration's clone lives only while it
// is queued, and the critical trace is replayed from the root.
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
	// every configuration.  Ids are dequeued in admission order, so k's
	// successors, in step order, are succ[off[k]:off[k+1]].
	var (
		keys   explore.KeySet
		parent = []int64{-1}
		moves  = []stepRef{{}} // moves[v] leads from parent[v] to v
		succ   []int64
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
		off = append(off, int64(len(succ)))
		_, err := opts.Successors(c, func(pid int, outcome int64, _ sim.Event) bool {
			buf = c.AppendKey(buf[:0])
			id, fresh := keys.Admit(sim.FingerprintBytes(buf), buf)
			if fresh {
				parent = append(parent, k)
				moves = append(moves, stepRef{int32(pid), int32(outcome)})
				flags = append(flags, decidedBits(c))
				queue = append(queue, c.Clone())
			}
			succ = append(succ, id)
			return false
		})
		if err != nil {
			return nil, fmt.Errorf("valency: bivalence step: %w", err)
		}
	}
	n := int64(keys.Len())
	off = append(off, int64(len(succ)))

	// Phase 2: propagate reachable decisions backwards to the least
	// fixpoint: sweep the configurations in reverse discovery order, each
	// taking its successors' reach bits, until a sweep changes nothing.
	// Most arcs lead to later ids, whose bits the same sweep has already
	// settled, so few sweeps are needed (13 over counter-walk(4)'s 7.3
	// million arcs on [0 1 0 1]).
	for changed := true; changed; {
		changed = false
		for v := n - 1; v >= 0; v-- {
			b := flags[v]
			for _, s := range succ[off[v]:off[v+1]] {
				b |= flags[s]
			}
			if b != flags[v] {
				flags[v], changed = b, true
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
	// bivalent path must close one.  A depth-first search from the
	// initial configuration through bivalent successors finds one when a
	// successor is still on its path.
	type frame struct{ v, next int64 }
	flags[0] |= onPath
	for path := []frame{{0, off[0]}}; len(path) > 0; {
		f := &path[len(path)-1]
		if f.next == off[f.v+1] {
			flags[f.v] = flags[f.v]&^onPath | searched
			path = path[:len(path)-1]
			continue
		}
		s := succ[f.next]
		f.next++
		switch {
		case valence(s) != Bivalent || flags[s]&searched != 0:
		case flags[s]&onPath != 0:
			rep.ForeverBivalent = true
			return rep, nil
		default:
			flags[s] |= onPath
			path = append(path, frame{s, off[s]})
		}
	}

	// Phase 4: the adversary is eventually forced out of bivalence —
	// find a critical configuration (bivalent, all successors univalent)
	// by greedy descent through bivalent successors, in successor order.
	v := int64(0)
	flags[v] |= descended
	for {
		i := slices.IndexFunc(succ[off[v]:off[v+1]], func(s int64) bool {
			return valence(s) == Bivalent && flags[s]&descended == 0
		})
		if i < 0 {
			break
		}
		v = succ[off[v]+int64(i)]
		flags[v] |= descended
	}
	// The critical configuration's trace is its path in the discovery
	// tree, replayed from the initial configuration.
	var path []stepRef
	for ; v != 0; v = parent[v] {
		path = append(path, moves[v])
	}
	slices.Reverse(path)
	c := sim.NewConfig(proto, inputs)
	for _, m := range path {
		ev, err := c.Step(int(m.pid), int64(m.outcome))
		if err != nil {
			return nil, fmt.Errorf("valency: bivalence replay: %w", err)
		}
		rep.CriticalTrace = append(rep.CriticalTrace, ev)
	}
	return rep, nil
}

// stepRef is the step that discovered a configuration: the process that
// took it and, for a coin flip, the outcome.
type stepRef struct{ pid, outcome int32 }

// Flag bits of Bivalence's passes, per configuration.
const (
	reach0    uint8 = 1 << iota // a configuration where 0 is decided is reachable
	reach1                      // likewise for 1
	onPath                      // phase 3: on the search's current path
	searched                    // phase 3: every bivalent path from it searched
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
