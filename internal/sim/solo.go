package sim

// SoloTerminate searches for a finite solo execution of process pid
// starting from c in which pid decides, realizing the nondeterministic solo
// termination property of §2: "for every configuration C and every process
// P, there exists a finite solo execution, starting at C, in which P
// finishes executing its procedure."
//
// Shared-object steps are deterministic in a solo run; coin flips are the
// only branch points, and SoloTerminate backtracks over their outcomes
// (depth-first, outcome 0 first) until a deciding run of at most maxSteps
// steps is found.  A run that halts without deciding, or whose step fails,
// backs up to the most recent flip with an untried outcome.
//
// c is used as scratch and restored before return: the walk steps it in
// place and undoes every step, so c is not safe to read from another
// goroutine during the call.  The returned execution is the only
// allocation.
//
// If pid has already decided, the empty execution and its decision are
// returned.  ok is false if no deciding solo run of length ≤ maxSteps
// exists — for a protocol satisfying nondeterministic solo termination this
// means maxSteps was too small.
func SoloTerminate(c *Config, pid, maxSteps int) (exec Execution, decision int64, ok bool) {
	if c.Decided[pid] {
		return nil, c.Decision[pid], true
	}
	decision, ok = soloWalk(c, pid, maxSteps, &exec, nil)
	return exec, decision, ok
}

// SoloDecision is SoloTerminate without the execution: the decision of the
// first deciding solo run of pid from c within maxSteps steps, found by the
// same walk in the same order.  It allocates nothing, so callers that only
// need to know whether (and what) pid decides — the protocol-space search's
// prefilter — should prefer it.  c is scratch, as for SoloTerminate.
func SoloDecision(c *Config, pid, maxSteps int) (decision int64, ok bool) {
	return soloWalk(c, pid, maxSteps, nil, nil)
}

// SoloDecisions returns the set of values pid decides in solo executions
// of at most maxSteps steps from c, over every flip outcome: the walk of
// SoloTerminate, continued past each decision instead of stopped at the
// first.  c is scratch, as for SoloTerminate.
func SoloDecisions(c *Config, pid, maxSteps int) map[int64]bool {
	found := make(map[int64]bool)
	soloWalk(c, pid, maxSteps, nil, func(d int64) { found[d] = true })
	return found
}

// soloStackFrames is how many solo steps the walk keeps on the goroutine
// stack before its frame stack moves to the heap: the protocol-space
// search's prefilter budget.
const soloStackFrames = 64

// soloFrame is one step of the walk's current solo run.
type soloFrame struct {
	u      StepUndo
	result int64 // the step's result; for a flip, the outcome being tried
	sides  int64 // for a flip, its number of outcomes; 0 for any other step
}

// soloWalk is the depth-first search behind SoloTerminate, SoloDecision
// and SoloDecisions, run in place on c over StepInto/UndoStep.  The stack
// holds the current run, one frame per step; a failed run (budget spent,
// halt without deciding, a step error) pops frames back to the most recent
// flip with an untried outcome and steps that outcome instead.
//
// With visit nil the walk stops at the first configuration where pid has
// decided and returns that decision, first writing the run into *exec when
// exec is non-nil.  Otherwise it calls visit with every decision it
// reaches and continues, returning ok false once the runs are exhausted.
// Either way every step is undone before return.
func soloWalk(c *Config, pid, maxSteps int, exec *Execution, visit func(int64)) (decision int64, ok bool) {
	var frames [soloStackFrames]soloFrame
	stack := frames[:0]
	for {
		switch {
		case c.Decided[pid] && visit == nil:
			decision, ok = c.Decision[pid], true
			if exec != nil {
				*exec = make(Execution, len(stack))
				for i := range stack {
					f := &stack[i]
					(*exec)[i] = Event{Pid: pid, Action: f.u.state.Action(), Result: f.result}
				}
			}
			for i := len(stack) - 1; i >= 0; i-- {
				c.UndoStep(&stack[i].u)
			}
			return decision, ok
		case c.Decided[pid]:
			visit(c.Decision[pid])
		case len(stack) < maxSteps:
			stack = append(stack, soloFrame{})
			f := &stack[len(stack)-1]
			ev, err := c.StepInto(pid, 0, &f.u)
			if err == nil {
				f.result = ev.Result
				if ev.Action.Kind == ActFlip {
					f.sides = ev.Action.Sides
				}
				continue
			}
			stack = stack[:len(stack)-1]
		}

		// Backtrack: undo steps down to a flip with an untried outcome.
		for {
			if len(stack) == 0 {
				return 0, false
			}
			f := &stack[len(stack)-1]
			c.UndoStep(&f.u)
			// sides guards: a non-flip's result is a response, not an outcome.
			if f.sides != 0 && f.result+1 < f.sides {
				f.result++
				if _, err := c.StepInto(pid, f.result, &f.u); err == nil {
					break
				}
			}
			stack = stack[:len(stack)-1]
		}
	}
}
