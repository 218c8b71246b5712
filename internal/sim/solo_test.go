package sim_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"randsync/internal/protocol"
	"randsync/internal/sim"
)

// refWork caps the steps one reference walk may take.  The reference
// backtracks exhaustively, which is exponential in the flips of a
// counter-walk run; a case whose reference exceeds the cap is skipped, not
// compared.
const refWork = 20000

// refSoloTerminate is the recursive clone-per-branch SoloTerminate the
// in-place walk replaced, kept as its differential reference.  The only
// addition is the work cap: aborted reports that the cap cut the search
// short, and then the other results mean nothing.
func refSoloTerminate(c *sim.Config, pid, maxSteps int) (exec sim.Execution, decision int64, ok, aborted bool) {
	if c.Decided[pid] {
		return nil, c.Decision[pid], true, false
	}
	work := c.Clone()
	var out sim.Execution
	budget := refWork

	var dfs func(w *sim.Config, depth int) bool
	dfs = func(w *sim.Config, depth int) bool {
		for depth < maxSteps {
			if w.Decided[pid] {
				return true
			}
			if budget--; budget < 0 {
				aborted = true
				return false
			}
			a := w.States[pid].Action()
			switch a.Kind {
			case sim.ActHalt:
				return false
			case sim.ActFlip:
				for o := int64(0); o < a.Sides; o++ {
					snap := w.Clone()
					mark := len(out)
					ev, err := w.Step(pid, o)
					if err != nil {
						return false
					}
					out = append(out, ev)
					if dfs(w, depth+1) {
						return true
					}
					*w = *snap
					out = out[:mark]
				}
				return false
			default:
				ev, err := w.Step(pid, 0)
				if err != nil {
					return false
				}
				out = append(out, ev)
				depth++
			}
		}
		return w.Decided[pid]
	}

	if !dfs(work, 0) {
		return nil, 0, false, aborted
	}
	return out, work.Decision[pid], true, false
}

// refSoloDecisions is the recursive SoloDecisions the in-place walk
// replaced, with the same work cap as refSoloTerminate.
func refSoloDecisions(c *sim.Config, pid, maxSteps int) (found map[int64]bool, aborted bool) {
	found = make(map[int64]bool)
	budget := refWork
	var dfs func(w *sim.Config, depth int)
	dfs = func(w *sim.Config, depth int) {
		if w.Decided[pid] {
			found[w.Decision[pid]] = true
			return
		}
		if depth >= maxSteps {
			return
		}
		if budget--; budget < 0 {
			aborted = true
			return
		}
		a := w.States[pid].Action()
		switch a.Kind {
		case sim.ActHalt:
			return
		case sim.ActFlip:
			for o := int64(0); o < a.Sides; o++ {
				branch := w.Clone()
				if _, err := branch.Step(pid, o); err != nil {
					return
				}
				dfs(branch, depth+1)
			}
		default:
			if _, err := w.Step(pid, 0); err != nil {
				return
			}
			dfs(w, depth+1)
		}
	}
	dfs(c.Clone(), 0)
	return found, aborted
}

// soloZoo is every internal/protocol zoo entry at n processes plus the
// internal tests' fixtures: write-read, flip, and the two retry tables
// whose solo runs backtrack over flips.
func soloZoo(n int) []sim.Protocol {
	return []sim.Protocol{
		protocol.CASConsensus{},
		protocol.StickyConsensus{},
		protocol.NewTAS2(),
		protocol.NewSwap2(),
		protocol.NewFetchAdd2(),
		protocol.NewFetchInc2(),
		protocol.RegisterNaive2{},
		protocol.NewCounterWalk(n),
		protocol.NewPackedFetchAdd(n),
		protocol.NewRegisterConsensus(n, 4),
		protocol.NewRegisterFlood(2),
		protocol.NewSwapFlood(2),
		protocol.NewMixedFlood(3),
		protocol.GenerateScanMachine(3, 7),
		sim.WriteReadProto,
		sim.FlipProto,
		sim.RetryProto(false),
		sim.RetryProto(true),
	}
}

// reachable returns a configuration of proto with n processes and seeded
// inputs, reached from the initial one by a seeded random schedule walk
// of up to 40 steps with seeded flip outcomes.
func reachable(proto sim.Protocol, n int, seed uint64) *sim.Config {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = rng.Int64N(2)
	}
	c := sim.NewConfig(proto, inputs)
	for steps := rng.IntN(41); steps > 0; steps-- {
		var live []int
		for pid := range c.States {
			if c.Pending(pid).Kind != sim.ActHalt {
				live = append(live, pid)
			}
		}
		if len(live) == 0 {
			break
		}
		pid := live[rng.IntN(len(live))]
		var outcome int64
		if a := c.Pending(pid); a.Kind == sim.ActFlip && a.Sides > 0 {
			outcome = rng.Int64N(a.Sides)
		}
		if _, err := c.Step(pid, outcome); err != nil {
			break
		}
	}
	return c
}

// soloGenerous is the budget a sweep first runs the reference at, to learn
// the deciding length of pid's first solo run.
const soloGenerous = 300

// checkSoloSweep compares the walk with the reference for pid from c at
// budget 0, 1, the first deciding run's length L, L−1, L+1, the generous
// budget, and extra.  It returns how many budgets were compared (the rest
// exceeded the reference's work cap).
func checkSoloSweep(t *testing.T, c *sim.Config, pid, extra int) int {
	t.Helper()
	budgets := []int{0, 1, soloGenerous, extra}
	if exec, _, ok, aborted := refSoloTerminate(c, pid, soloGenerous); ok && !aborted {
		budgets = append(budgets, len(exec)-1, len(exec), len(exec)+1)
	}
	slices.Sort(budgets)
	compared := 0
	for _, b := range slices.Compact(budgets) {
		if b >= 0 && checkSolo(t, c, pid, b) {
			compared++
		}
	}
	return compared
}

// checkSolo requires SoloTerminate, SoloDecision and SoloDecisions to give
// exactly the reference's answers for pid from c within budget, and to
// leave c's AppendKey bytes and step counts as they found them.  It
// reports false, checking nothing, when the reference exceeds its cap.
func checkSolo(t *testing.T, c *sim.Config, pid, budget int) bool {
	t.Helper()
	wantExec, wantDec, wantOK, aborted := refSoloTerminate(c, pid, budget)
	if aborted {
		return false
	}
	name := fmt.Sprintf("%s %v P%d budget %d", c.Proto.Name(), c.Inputs, pid, budget)
	key, steps := c.AppendKey(nil), slices.Clone(c.Steps)
	unchanged := func(call string) {
		t.Helper()
		if !bytes.Equal(c.AppendKey(nil), key) || !slices.Equal(c.Steps, steps) {
			t.Fatalf("%s: %s did not restore the configuration", name, call)
		}
	}

	exec, dec, ok := sim.SoloTerminate(c, pid, budget)
	unchanged("SoloTerminate")
	if !reflect.DeepEqual(exec, wantExec) || dec != wantDec || ok != wantOK {
		t.Fatalf("%s: SoloTerminate = (%v, %d, %v), reference (%v, %d, %v)",
			name, exec, dec, ok, wantExec, wantDec, wantOK)
	}
	dec, ok = sim.SoloDecision(c, pid, budget)
	unchanged("SoloDecision")
	if dec != wantDec || ok != wantOK {
		t.Fatalf("%s: SoloDecision = (%d, %v), reference (%d, %v)", name, dec, ok, wantDec, wantOK)
	}
	if want, aborted := refSoloDecisions(c, pid, budget); !aborted {
		got := sim.SoloDecisions(c, pid, budget)
		unchanged("SoloDecisions")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SoloDecisions = %v, reference %v", name, got, want)
		}
	}
	return true
}

// TestSoloWalkMatchesParent: over every zoo protocol at 1–3 processes and
// seeded reachable configurations, the in-place walk gives the recursive
// reference's exact execution, decision and ok for every process and a
// sweep of budgets around the deciding length, and restores c.
func TestSoloWalkMatchesParent(t *testing.T) {
	seeds := uint64(32)
	if testing.Short() {
		seeds = 8
	}
	compared := 0
	for n := 1; n <= 3; n++ {
		for i, proto := range soloZoo(n) {
			for seed := uint64(1); seed <= seeds; seed++ {
				c := reachable(proto, n, seed*100+uint64(i))
				for pid := 0; pid < n; pid++ {
					compared += checkSoloSweep(t, c, pid, int(seed))
				}
			}
		}
	}
	t.Logf("%d (configuration, process, budget) cases compared", compared)
	if compared < 1000 {
		t.Fatalf("only %d cases compared; the reference's work cap skipped too many", compared)
	}
}

// FuzzSoloTerminate: for any zoo protocol, process count, walk seed and
// budget, every process's solo walk matches the recursive reference
// across the budget sweep plus the fuzzed budget.
func FuzzSoloTerminate(f *testing.F) {
	for i := range soloZoo(1) {
		f.Add(uint8(i), uint8(2), uint64(i), uint16(3))
	}
	f.Add(uint8(7), uint8(3), uint64(11), uint16(40))  // counter-walk
	f.Add(uint8(8), uint8(3), uint64(12), uint16(100)) // packed fetch&add
	f.Fuzz(func(t *testing.T, proto, n uint8, seed uint64, budget uint16) {
		procs := 1 + int(n)%3
		zoo := soloZoo(procs)
		c := reachable(zoo[int(proto)%len(zoo)], procs, seed)
		for pid := 0; pid < procs; pid++ {
			checkSoloSweep(t, c, pid, int(budget)%(2*soloGenerous))
		}
	})
}

// TestSoloWalkAllocs pins the walk's allocation budget on a protocol whose
// steps allocate nothing: the decision-only walk allocates nothing, whether
// it backtracks over both flips to a decision or exhausts every run, and
// SoloTerminate allocates its returned execution on success and nothing on
// failure.  (hierarchy's TestMachineStepAllocs pins the decision-only walk
// at 0 on a compiled machine that spends its whole budget.)
func TestSoloWalkAllocs(t *testing.T) {
	c := sim.NewConfig(sim.RetryProto(false), []int64{0})
	var dec int64
	var ok bool
	for _, tc := range []struct {
		name   string
		budget int
		want   bool
	}{
		{"backtrack to decide", 64, true},
		{"budget exhausted", 2, false},
	} {
		n := testing.AllocsPerRun(100, func() { dec, ok = sim.SoloDecision(c, 0, tc.budget) })
		if ok != tc.want || (ok && dec != 1) {
			t.Fatalf("%s: SoloDecision = (%d, %v), want ok %v", tc.name, dec, ok, tc.want)
		}
		if n != 0 {
			t.Errorf("%s: SoloDecision allocates %.0f times, want 0", tc.name, n)
		}
	}

	var exec sim.Execution
	if n := testing.AllocsPerRun(100, func() { exec, dec, ok = sim.SoloTerminate(c, 0, 64) }); n != 1 {
		t.Errorf("successful SoloTerminate allocates %.0f times, want 1 (the execution)", n)
	}
	if !ok || dec != 1 || len(exec) != 3 {
		t.Fatalf("SoloTerminate = (%v, %d, %v), want a 3-step run deciding 1", exec, dec, ok)
	}
	if n := testing.AllocsPerRun(100, func() { exec, dec, ok = sim.SoloTerminate(c, 0, 2) }); n != 0 || ok {
		t.Errorf("failed SoloTerminate allocates %.0f times (ok %v), want 0 (false)", n, ok)
	}
}
