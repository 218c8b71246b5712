package valency

import (
	"errors"
	"fmt"
	"slices"

	"randsync/internal/sim"
)

// RefBivalence is the differential reference for Bivalence: the
// analysis as it stood before Bivalence moved onto explore.KeySet, kept
// unchanged — a map[string]*node graph holding one configuration clone
// per node, with map-based fixpoints.  It is exported (from a test file)
// for the differential test in package valency_test, which imports zoo.
func RefBivalence(proto sim.Protocol, inputs []int64, opts Options) (*BivalenceReport, error) {
	if len(opts.Crash) > 0 {
		return nil, errors.New("valency: Bivalence does not support a crash schedule")
	}
	type node struct {
		cfg    *sim.Config
		succ   []*node
		reach0 bool
		reach1 bool
		parent *node     // breadth-first discoverer, nil at the root
		ev     sim.Event // the step from parent to this node
	}
	nodes := make(map[string]*node)
	budget := opts.Budget()

	// Phase 1: materialize the reachable configuration graph,
	// breadth-first, so the discovery tree holds a shortest execution to
	// every node.
	root := &node{cfg: sim.NewConfig(proto, inputs)}
	buf := root.cfg.AppendKey(nil)
	nodes[string(buf)] = root
	queue := []*node{root}
	for len(queue) > 0 {
		if len(nodes) > budget {
			return &BivalenceReport{Complete: false, Configs: len(nodes)}, nil
		}
		n := queue[0]
		queue = queue[1:]
		c := n.cfg
		_, err := opts.Successors(c, func(_ int, _ int64, ev sim.Event) bool {
			buf = c.AppendKey(buf[:0])
			next, seen := nodes[string(buf)]
			if !seen {
				next = &node{cfg: c.Clone(), parent: n, ev: ev}
				nodes[string(buf)] = next
				queue = append(queue, next)
			}
			n.succ = append(n.succ, next)
			return false
		})
		if err != nil {
			return nil, fmt.Errorf("valency: bivalence step: %w", err)
		}
	}

	// Phase 2: propagate reachable decisions backwards to a fixpoint.
	for _, n := range nodes {
		d := n.cfg.Decisions()
		if len(d[0]) > 0 {
			n.reach0 = true
		}
		if len(d[1]) > 0 {
			n.reach1 = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, sn := range n.succ {
				if sn.reach0 && !n.reach0 {
					n.reach0, changed = true, true
				}
				if sn.reach1 && !n.reach1 {
					n.reach1, changed = true, true
				}
			}
		}
	}

	valence := func(n *node) Valence {
		switch {
		case n.reach0 && n.reach1:
			return Bivalent
		case n.reach0:
			return Univalent0
		case n.reach1:
			return Univalent1
		default:
			return Undecidable
		}
	}

	rep := &BivalenceReport{
		Initial:  valence(root),
		Configs:  len(nodes),
		Complete: true,
	}
	for _, n := range nodes {
		if valence(n) == Bivalent {
			rep.BivalentCount++
		}
	}

	if rep.Initial != Bivalent {
		return rep, nil
	}

	// Phase 3: can the adversary stay bivalent forever?  Compute the
	// largest "safe" set S of bivalent configurations such that every
	// member has a successor in S; the adversary survives iff the initial
	// configuration is in S (a bivalent path from it must eventually
	// cycle, since the graph is finite).
	safe := make(map[*node]bool, rep.BivalentCount)
	for _, n := range nodes {
		if valence(n) == Bivalent {
			safe[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for n := range safe {
			ok := false
			for _, sn := range n.succ {
				if safe[sn] {
					ok = true
					break
				}
			}
			if !ok {
				delete(safe, n)
				changed = true
			}
		}
	}
	if safe[root] {
		rep.ForeverBivalent = true
		return rep, nil
	}

	// Phase 4: the adversary is eventually forced out of bivalence —
	// find a critical configuration (bivalent, all successors univalent)
	// by greedy descent through bivalent successors.
	n := root
	visited := map[*node]bool{n: true}
	for {
		var next *node
		for _, sn := range n.succ {
			if valence(sn) == Bivalent && !visited[sn] {
				next = sn
				break
			}
		}
		if next == nil {
			break
		}
		visited[next] = true
		n = next
	}
	// The critical configuration's trace is its path in the discovery
	// tree.
	for ; n.parent != nil; n = n.parent {
		rep.CriticalTrace = append(rep.CriticalTrace, n.ev)
	}
	slices.Reverse(rep.CriticalTrace)
	return rep, nil
}
