// Package trace renders simulator executions for human inspection: the
// annotated step-by-step listings and the Figure-1-style summaries that
// cmd/lowerbound and cmd/experiments (E1) print when the §3 adversary has
// constructed an inconsistent execution.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"randsync/internal/core"
	"randsync/internal/object"
	"randsync/internal/sim"
)

// Annotate replays exec from the initial configuration of proto with the
// given inputs and renders one line per event: the step number, the
// process and its input, the action and result, and the object values
// after the step.  Decisions are flagged.  The execution must be legal.
func Annotate(proto sim.Protocol, inputs []int64, exec sim.Execution) (string, error) {
	c := sim.NewConfig(proto, inputs)
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-6s %-22s %-8s %s\n", "step", "proc", "action", "result", "objects after")
	for i, ev := range exec {
		if err := c.Apply(sim.Execution{ev}); err != nil {
			return "", fmt.Errorf("trace: event %d: %w", i, err)
		}
		proc := fmt.Sprintf("P%d(%d)", ev.Pid, inputs[ev.Pid])
		result := fmt.Sprintf("%d", ev.Result)
		mark := ""
		if ev.Action.Kind == sim.ActDecide {
			mark = fmt.Sprintf("   ◀ P%d decides %d", ev.Pid, ev.Action.Value)
			result = "-"
		}
		fmt.Fprintf(&b, "%-5d %-6s %-22s %-8s %v%s\n",
			i, proc, ev.Action.String(), result, c.Objects, mark)
	}
	return b.String(), nil
}

// Summarize renders a witness in the style of Figure 1: which processes
// participate, who performs nontrivial operations where, and the two
// contradictory decisions.
func Summarize(w *core.Witness) string {
	var b strings.Builder
	types := w.Proto.Objects()

	fmt.Fprintf(&b, "protocol: %s  (%d objects: ", w.Proto.Name(), len(types))
	names := make([]string, len(types))
	for i, t := range types {
		names[i] = t.Name()
	}
	fmt.Fprintf(&b, "%s)\n", strings.Join(names, ", "))
	fmt.Fprintf(&b, "witness kind: %v\n", w.Kind)
	fmt.Fprintf(&b, "execution: %d events by %d of %d processes\n",
		len(w.Exec), w.ProcessesUsed(), len(w.Inputs))

	// Per-process activity.
	type activity struct {
		steps, writes int
		input         int64
		decided       bool
		decision      int64
		firstStep     int
	}
	acts := map[int]*activity{}
	var order []int
	for i, ev := range w.Exec {
		a := acts[ev.Pid]
		if a == nil {
			a = &activity{input: w.Inputs[ev.Pid], firstStep: i}
			acts[ev.Pid] = a
			order = append(order, ev.Pid)
		}
		a.steps++
		if ev.Action.Kind == sim.ActOperate && !object.Trivial(types[ev.Action.Obj], ev.Action.Op.Kind) {
			a.writes++
		}
		if ev.Action.Kind == sim.ActDecide {
			a.decided = true
			a.decision = ev.Action.Value
		}
	}
	fmt.Fprintf(&b, "%-6s %-6s %-6s %-9s %s\n", "proc", "input", "steps", "writes", "outcome")
	for _, pid := range order {
		a := acts[pid]
		outcome := "running"
		if a.decided {
			outcome = fmt.Sprintf("decided %d", a.decision)
		}
		fmt.Fprintf(&b, "P%-5d %-6d %-6d %-9d %s\n", pid, a.input, a.steps, a.writes, outcome)
	}

	for v, pids := range w.Decisions {
		fmt.Fprintf(&b, "value %d decided by processes %v\n", v, pids)
	}
	return b.String()
}

// BlockWrites renders the spliced structure of a witness: maximal runs of
// consecutive nontrivial operations by distinct processes on distinct
// objects (the block writes of §3), which is where one combined execution
// obliterates the traces of the other.
func BlockWrites(w *core.Witness) string {
	types := w.Proto.Objects()
	var b strings.Builder
	runStart := -1
	seenObjs := map[int]bool{}
	seenPids := map[int]bool{}
	flush := func(end int) {
		if runStart >= 0 && len(seenObjs) >= 2 {
			objs := make([]string, 0, len(seenObjs))
			for o := range seenObjs {
				objs = append(objs, fmt.Sprintf("R%d", o))
			}
			sort.Strings(objs)
			fmt.Fprintf(&b, "steps %d..%d: block write to {%s} by %d processes\n",
				runStart, end-1, strings.Join(objs, ","), len(seenPids))
		}
		runStart = -1
		seenObjs = map[int]bool{}
		seenPids = map[int]bool{}
	}
	for i, ev := range w.Exec {
		isWrite := ev.Action.Kind == sim.ActOperate &&
			!object.Trivial(types[ev.Action.Obj], ev.Action.Op.Kind)
		if !isWrite || seenObjs[ev.Action.Obj] || seenPids[ev.Pid] {
			flush(i)
		}
		if isWrite {
			if runStart < 0 {
				runStart = i
			}
			seenObjs[ev.Action.Obj] = true
			seenPids[ev.Pid] = true
		}
	}
	flush(len(w.Exec))
	if b.Len() == 0 {
		return "no multi-object block writes (single-register case)\n"
	}
	return b.String()
}

// Lanes renders the execution as per-process columns (one row per event,
// one column per participating process), the visual idiom of the paper's
// figures.  Only processes that take steps get columns.
func Lanes(proto sim.Protocol, inputs []int64, exec sim.Execution) (string, error) {
	pids := exec.ByProcess()
	if len(pids) == 0 {
		return "(empty execution)\n", nil
	}
	col := make(map[int]int, len(pids))
	for i, pid := range pids {
		col[pid] = i
	}
	const width = 16
	var b strings.Builder
	for _, pid := range pids {
		fmt.Fprintf(&b, "%-*s", width, fmt.Sprintf("P%d(in=%d)", pid, inputs[pid]))
	}
	b.WriteByte('\n')
	c := sim.NewConfig(proto, inputs)
	for i, ev := range exec {
		if err := c.Apply(sim.Execution{ev}); err != nil {
			return "", fmt.Errorf("trace: event %d: %w", i, err)
		}
		cell := ev.Action.String()
		if ev.Action.Kind == sim.ActOperate {
			cell = fmt.Sprintf("%v→%d", ev.Action, ev.Result)
		}
		if len(cell) > width-1 {
			cell = cell[:width-1]
		}
		for j := 0; j < len(pids); j++ {
			if j == col[ev.Pid] {
				fmt.Fprintf(&b, "%-*s", width, cell)
			} else {
				fmt.Fprintf(&b, "%-*s", width, "·")
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
