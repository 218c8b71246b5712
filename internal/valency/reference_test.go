package valency

import (
	"fmt"
	"strconv"
	"strings"

	"randsync/internal/sim"
)

// refChecker is the differential reference for the serial engine: a
// depth-first search keyed by the human-readable Config.Key strings and
// stepping on fresh clones, independent of the compact encoding
// (sim.Keyer), of copy-on-write stepping and of Options.AppendVisitKey.
// It has no budget and no symmetry reduction, so it is meant for the
// small spaces of the differential tests.
type refChecker struct {
	crash   []int
	visited map[string]uint8 // 1 = on stack (grey), 2 = done (black)
	valid   map[int64]bool
	path    sim.Execution
	rep     *Report
}

// refCheckAllInputs is the reference for CheckAllInputs(proto, n,
// Options{Crash: crash, NoSymmetry: true}): every binary input vector in
// canonical order, stopping at the first violation.
func refCheckAllInputs(proto sim.Protocol, n int, crash []int) *Report {
	agg := &Report{Complete: true, Decisions: make(map[int64]bool)}
	for bits := 0; bits < 1<<n; bits++ {
		rep := refCheck(proto, inputVector(bits, n), crash)
		agg.Configs += rep.Configs
		agg.Livelock = agg.Livelock || rep.Livelock
		for v := range rep.Decisions {
			agg.Decisions[v] = true
		}
		if rep.Violation != nil {
			rep.Configs = agg.Configs
			return rep
		}
	}
	return agg
}

func refCheck(proto sim.Protocol, inputs []int64, crash []int) *Report {
	rc := &refChecker{
		crash:   crash,
		visited: make(map[string]uint8),
		valid:   make(map[int64]bool),
		rep: &Report{
			Inputs:    append([]int64(nil), inputs...),
			Decisions: make(map[int64]bool),
			Complete:  true,
		},
	}
	for _, in := range inputs {
		rc.valid[in] = true
	}
	rc.explore(sim.NewConfig(proto, inputs))
	rc.rep.Configs = len(rc.visited)
	if rc.rep.Violation != nil {
		rc.rep.Complete = false
	}
	return rc.rep
}

func (rc *refChecker) crashed(c *sim.Config, pid int) bool {
	return pid < len(rc.crash) && rc.crash[pid] >= 0 && c.Steps[pid] >= rc.crash[pid]
}

// key is Config.Key, extended under a crash schedule with each process's
// remaining steps to crash (clamped at 0, -1 for never): Config.Key
// ignores step counts, but the allowance determines a process's future.
func (rc *refChecker) key(c *sim.Config) string {
	if len(rc.crash) == 0 {
		return c.Key()
	}
	var b strings.Builder
	b.WriteString(c.Key())
	b.WriteString("!c")
	for pid, lim := range rc.crash {
		rem := -1
		if lim >= 0 {
			rem = max(lim-c.Steps[pid], 0)
		}
		b.WriteString(strconv.Itoa(rem))
		b.WriteByte(',')
	}
	return b.String()
}

func (rc *refChecker) record(kind ViolationKind, detail string) {
	rc.rep.Violation = &Violation{Kind: kind, Trace: append(sim.Execution(nil), rc.path...), Detail: detail}
}

// explore returns true when the search must stop (a violation).
func (rc *refChecker) explore(c *sim.Config) bool {
	key := rc.key(c)
	switch rc.visited[key] {
	case 1:
		rc.rep.Livelock = true // back edge: a cycle of live configurations
		return false
	case 2:
		return false
	}
	rc.visited[key] = 1
	defer func() { rc.visited[key] = 2 }()

	firstPid, firstVal := -1, int64(0)
	for pid, d := range c.Decided {
		if !d {
			if c.Pending(pid).Kind == sim.ActHalt && !rc.crashed(c, pid) {
				rc.record(Stuck, fmt.Sprintf("P%d halted without deciding", pid))
				return true
			}
			continue
		}
		v := c.Decision[pid]
		rc.rep.Decisions[v] = true
		if !rc.valid[v] {
			rc.record(Validity, fmt.Sprintf("P%d decided %d, which is no process's input", pid, v))
			return true
		}
		if firstPid == -1 {
			firstPid, firstVal = pid, v
		} else if v != firstVal {
			rc.record(Consistency, fmt.Sprintf("P%d decided %d but P%d decided %d", firstPid, firstVal, pid, v))
			return true
		}
	}
	for pid := 0; pid < c.N(); pid++ {
		if rc.crashed(c, pid) {
			continue
		}
		a := c.Pending(pid)
		if a.Kind == sim.ActHalt {
			continue
		}
		outcomes := int64(1)
		if a.Kind == sim.ActFlip {
			outcomes = a.Sides
		}
		for o := int64(0); o < outcomes; o++ {
			next := c.Clone()
			ev, err := next.Step(pid, o)
			if err != nil {
				rc.record(Stuck, fmt.Sprintf("P%d cannot step: %v", pid, err))
				return true
			}
			rc.path = append(rc.path, ev)
			stop := rc.explore(next)
			rc.path = rc.path[:len(rc.path)-1]
			if stop {
				return true
			}
		}
	}
	return false
}
