// Command experiments is the one regeneration command for every numbered
// result in EXPERIMENTS.md that a program prints: the Figure 1 witness
// (E1), the adversary sweeps (E2, E3), the separation table and the
// checked facts behind it (E4, which also cover E11's hierarchy claims),
// the space and work tables of the live protocols and the shared coin
// (E5–E9), the space-gap series (E12), the protocol-space census (E13),
// and the graceful-degradation-under-chaos table (E14), whose fault mix is
// tunable with the -crash/-stall/-chaos-seed/-deadline flags.
//
// The deterministic tables (E1–E4, E12, E13) print as the markdown rows
// EXPERIMENTS.md holds; the package's golden test diffs them against the
// file.
//
// Usage:
//
//	experiments            # everything (about a second)
//	experiments -only e4   # one experiment
//	experiments -only e14 -crash 3 -stall 2 -chaos-seed 9
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"randsync/internal/coin"
	"randsync/internal/consensus"
	"randsync/internal/core"
	"randsync/internal/fault"
	"randsync/internal/hierarchy"
	"randsync/internal/object"
	"randsync/internal/protocol"
	"randsync/internal/runtime"
	"randsync/internal/sim"
	"randsync/internal/trace"
	"randsync/internal/valency"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// chaos carries the E14 fault-injection flags.
var chaos struct {
	crashes  int
	stalls   int
	seed     uint64
	deadline time.Duration
}

// experiments lists every experiment in the order a full run prints them.
var experiments = []struct {
	name string
	run  func() error
}{
	{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6},
	{"e7", e7}, {"e8", e8}, {"e9", e9}, {"e12", e12}, {"e13", e13}, {"e14", e14},
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment (e1, e2, e3, e4, e5, e6, e7, e8, e9, e12, e13, e14)")
	fs.IntVar(&chaos.crashes, "crash", 2, "e14: crash-stop this many processes per trial")
	fs.IntVar(&chaos.stalls, "stall", 2, "e14: inject this many bounded stalls per trial")
	fs.Uint64Var(&chaos.seed, "chaos-seed", 1, "e14: base seed for the fault schedules")
	fs.DurationVar(&chaos.deadline, "deadline", fault.DefaultDeadline, "e14: per-trial watchdog deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.name) {
			continue
		}
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if *only != "" {
			return nil
		}
		fmt.Println()
	}
	if *only != "" {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	fmt.Println("E10, E15 and X1–X4 come from tests: see EXPERIMENTS.md's header.")
	return nil
}

func header(title string) {
	fmt.Println("## " + title)
	fmt.Println()
}

// mdRow prints one markdown table row.
func mdRow(cells ...any) {
	var b strings.Builder
	b.WriteString("|")
	for _, c := range cells {
		fmt.Fprintf(&b, " %v |", c)
	}
	fmt.Println(b.String())
}

// mdHeader prints a markdown table's header row and its rule.
func mdHeader(cells ...any) {
	mdRow(cells...)
	fmt.Println("|" + strings.Repeat("---|", len(cells)))
}

// grouped renders n with thousands separators, as EXPERIMENTS.md does.
func grouped(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// e1 makes Figure 1 concrete: Flood over three swap registers decides
// correctly when run solo, yet the §3.2 adversary splices two
// interruptible executions into one in which both values are decided,
// and an independent replay confirms it.
func e1() error {
	header("E1 — Figure 1: combining two executions")
	target := protocol.NewSwapFlood(3)
	fmt.Println("1. Solo sanity check: each process decides its own input when alone.")
	for _, input := range []int64{0, 1} {
		exec, decision, ok := sim.SoloTerminate(sim.NewConfig(target, []int64{input, input}), 0, 1000)
		if !ok || decision != input {
			return fmt.Errorf("input %d: no solo run decides it", input)
		}
		fmt.Printf("   input %d: solo run of %d steps decides %d\n", input, len(exec), decision)
	}
	fmt.Print("\n2. Adversary (Lemmas 3.4–3.6): constructing an inconsistent execution...\n\n")
	w, err := core.FindGeneral(target, core.GeneralOptions{})
	if err != nil {
		return err
	}
	fmt.Print(trace.Summarize(w))
	fmt.Print("\n3. Block-write structure (where one side's traces are obliterated):\n")
	fmt.Print(trace.BlockWrites(w))
	replay := sim.NewConfig(w.Proto, w.Inputs)
	if err := replay.Apply(w.Exec); err != nil {
		return fmt.Errorf("replay failed: %w", err)
	}
	d := replay.Decisions()
	if len(d[0]) == 0 || len(d[1]) == 0 {
		return fmt.Errorf("replay decides %v, want both values", d)
	}
	fmt.Printf("\n4. Independent replay confirms: value 0 decided by %v, value 1 decided by %v.\n\n", d[0], d[1])
	mdHeader("target", "witness events", "processes used", "value 0 decided by", "value 1 decided by")
	mdRow(w.Proto.Name(), len(w.Exec), w.ProcessesUsed(), d[0], d[1])
	return nil
}

func e2() error {
	header("E2 — Lemmas 3.1/3.2, Theorem 3.3 (identical processes, registers)")
	mdHeader("r", "witness events", "processes used", "Lemma 3.2 bound r²−r+2")
	for r := 2; r <= 6; r++ {
		w, err := core.FindIdentical(protocol.NewRegisterFlood(r), core.IdenticalOptions{})
		if err != nil {
			return err
		}
		mdRow(r, len(w.Exec), w.ProcessesUsed(), r*r-r+2)
	}
	return nil
}

// e3 prints one table per object family; EXPERIMENTS.md holds the one
// table all three reproduce.
func e3() error {
	header("E3 — Lemmas 3.4–3.6, Theorem 3.7 (general historyless objects)")
	for i, fam := range []struct {
		name string
		mk   func(int) protocol.Flood
	}{{"registers", protocol.NewRegisterFlood}, {"swap", protocol.NewSwapFlood}, {"mixed", protocol.NewMixedFlood}} {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s:\n\n", fam.name)
		mdHeader("r", "witness events", "processes used", "3r²+r (+2 slack)")
		for r := 1; r <= 4; r++ {
			w, err := core.FindGeneral(fam.mk(r), core.GeneralOptions{})
			if err != nil {
				return err
			}
			mdRow(r, len(w.Exec), w.ProcessesUsed(), 3*r*r+r+2)
		}
	}
	return nil
}

// e4 computes the §4 separation table: each primitive's historyless and
// interfering classification from the object algebra, its deterministic
// consensus power from exhaustive valency checks over every input
// vector, and the randomized space our implementations realize.  The
// checked facts behind the table follow it.
func e4() error {
	header("E4 — §4 separation table (and E11's hierarchy facts)")
	check := func(p sim.Protocol, n int) *valency.Report {
		return valency.CheckAllInputs(p, n, valency.Options{Workers: -1})
	}
	verdict := func(p sim.Protocol, n int) string {
		rep := check(p, n)
		switch {
		case rep.Violation != nil:
			return fmt.Sprintf("%v found (%d configs)", rep.Violation.Kind, rep.Configs)
		case rep.Complete:
			return fmt.Sprintf("safe, exhaustively (%d configs)", rep.Configs)
		default:
			return fmt.Sprintf("safe within budget (%d configs)", rep.Configs)
		}
	}
	// detTwoProcess checks the 2-process protocol and the 3-process failure.
	detTwoProcess := func(p sim.Protocol) string {
		ok2 := check(p, 2).Violation == nil
		fail3 := check(p, 3).Violation != nil
		if ok2 && fail3 {
			return "= 2 (verified)"
		}
		return fmt.Sprintf("= 2 expected (n=2 ok:%v, n=3 fails:%v)", ok2, fail3)
	}
	detRegisters := "< 2 ([20])"
	if check(protocol.RegisterNaive2{}, 2).Violation != nil {
		detRegisters = "< 2 (violation exhibited)"
	}
	detCAS := "∞ (verified n ≤ 4)"
	for _, n := range []int{2, 3, 4} {
		if check(protocol.CASConsensus{}, n).Violation != nil {
			detCAS = "∞ expected (check failed!)"
		}
	}
	const n = 24 // example size for the space column
	mdHeader("primitive", "historyless", "interfering", "det. consensus (checked)", "randomized space (ours)")
	for _, row := range []struct {
		typ                  object.Type
		detPower, randomized string
	}{
		{object.RegisterType{}, detRegisters, fmt.Sprintf("O(n): %d registers at n=%d", consensus.NewRegisters(n, 1).Registers(), n)},
		{object.SwapRegisterType{}, detTwoProcess(protocol.NewSwap2()), "Ω(√n) (Theorem 3.7)"},
		{object.TestAndSetType{}, detTwoProcess(protocol.NewTAS2()), "Ω(√n) (Theorem 3.7)"},
		{object.CounterType{}, "< 2 (interfering; [20])", "3 counters (Thm 4.2 basis)"},
		{object.FetchAddType{}, detTwoProcess(protocol.NewFetchAdd2()), "1 object (Theorem 4.4)"},
		{object.FetchIncType{}, detTwoProcess(protocol.NewFetchInc2()), "1 object ([8] route; see docs)"},
		{object.CASType{}, detCAS, "1 object (via Herlihy [20])"},
	} {
		mdRow(row.typ.Name(), object.Historyless(row.typ), object.Interfering(row.typ, []int64{-1, 0, 1, 2}),
			row.detPower, row.randomized)
	}
	fmt.Print("\nChecked facts behind the table:\n\n")
	fmt.Printf("- register-naive-2 (deterministic, registers only): %s\n", verdict(protocol.RegisterNaive2{}, 2))
	fmt.Printf("- tas-2 at n=2: %s;  at n=3: %s\n", verdict(protocol.NewTAS2(), 2), verdict(protocol.NewTAS2(), 3))
	fmt.Printf("- cas at n=4: %s\n", verdict(protocol.CASConsensus{}, 4))
	fmt.Printf("- counter-walk at n=3 (all schedules & coins): %s\n", verdict(protocol.NewCounterWalk(3), 3))
	fmt.Printf("- packed-fetch&add at n=3: %s\n", verdict(protocol.NewPackedFetchAdd(3), 3))
	fmt.Printf("- register-consensus at n=2 (rounds ≤ 3): %s\n", verdict(protocol.NewRegisterConsensus(2, 3), 2))
	fmt.Printf("- flood-registers (r=2, solo-terminating) at n=2: %s\n", verdict(protocol.NewRegisterFlood(2), 2))
	return nil
}

// liveTable runs one live instance of the named protocol per process
// count, with alternating inputs and seed 1, and prints its space and
// work; processes that disagree are an error.
func liveTable(name string, sizes ...int) error {
	fmt.Printf("%-6s %-9s %-11s %-14s %s\n", "n", "objects", "registers", "ops/proc", "time")
	for _, n := range sizes {
		p, err := consensus.Resolve(name, n, 1)
		if err != nil {
			return err
		}
		out := make([]int64, n)
		start := time.Now()
		var wg sync.WaitGroup
		for proc := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[proc] = p.Decide(proc, int64(proc%2))
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if slices.Min(out) != slices.Max(out) {
			return fmt.Errorf("%s: consistency violated", p.Name())
		}
		fmt.Printf("%-6d %-9d %-11d %-14.1f %v\n",
			n, p.Objects(), p.Registers(), float64(p.Ops())/float64(n), elapsed)
	}
	return nil
}

func e5() error {
	header("E5 — consensus from O(n) registers (Aspnes–Herlihy [9])")
	return liveTable("registers", 2, 4, 8, 16, 32)
}

func e6() error {
	header("E6 — Theorem 4.2: three-counter walk + shared coin")
	if err := liveTable("counter-walk", 2, 8, 32); err != nil {
		return err
	}
	const k, trials = 4, 50
	fmt.Printf("\nshared coin, barriers ±Kn with K=%d, %d trials per n (seed 1):\n\n", k, trials)
	mdHeader("n", "agree %", "mean moves", "moves/(Kn)²")
	for _, n := range []int{2, 4, 8, 16, 32} {
		agree, moves := coinWalk(n, k, trials, 1)
		kn := float64(k * n)
		mdRow(n, fmt.Sprintf("%.0f", 100*agree), grouped(int(math.Round(moves))), fmt.Sprintf("%.2f", moves/(kn*kn)))
	}
	return nil
}

// coinWalk runs trials of the weak shared coin with barriers at ±k·n and
// returns the fraction of trials in which every process flipped the same
// value and the mean total moves per trial.
func coinWalk(n, k, trials int, seed uint64) (agree float64, meanMoves float64) {
	agreed, totalMoves := 0, 0
	for trial := 0; trial < trials; trial++ {
		c := coin.New(coin.CounterPosition{C: runtime.NewCounter(nil)}, n, k)
		outcomes := make([]int64, n)
		moves := make([]int, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed+uint64(trial), uint64(p)))
				outcomes[p], moves[p] = c.Flip(p, rng)
			}(p)
		}
		wg.Wait()
		if slices.Min(outcomes) == slices.Max(outcomes) {
			agreed++
		}
		for _, m := range moves {
			totalMoves += m
		}
	}
	return float64(agreed) / float64(trials), float64(totalMoves) / float64(trials)
}

func e7() error {
	header("E7 — Theorem 4.4: one fetch&add register")
	return liveTable("packed-fetch&add", 2, 8, 32, 64)
}

func e8() error {
	header("E8 — one compare&swap register (Herlihy [20])")
	return liveTable("cas", 2, 16, 128)
}

func e9() error {
	header("E9 — Theorem 2.1 composition: counters from registers")
	return liveTable("counter-walk/registers", 2, 4, 8, 16)
}

func e13() error {
	header("E13 — exhaustive protocol-space search (hierarchy separation)")
	var examples []*hierarchy.Machine
	mdHeader("object", "machines enumerated", "solve 2-process consensus")
	for _, typ := range []object.Type{
		object.RegisterType{}, object.TestAndSetType{}, object.StickyBitType{},
	} {
		res, err := hierarchy.Search(typ, 2)
		if err != nil {
			return err
		}
		mdRow(typ.Name()+" (2 free states)", grouped(res.Enumerated), grouped(res.Solvers))
		if res.Example != nil {
			examples = append(examples, res.Example)
		}
	}
	for _, m := range examples {
		fmt.Printf("\nexample solver over one %s:\n%s", m.Type.Name(), hierarchy.Describe(*m))
	}
	return nil
}

// e14 measures graceful degradation: every live protocol under seeded
// crash/stall schedules, reporting survivors, decisions, work and
// time-to-decision — and certifying the wait-freedom contract each trial.
func e14() error {
	header("E14 — graceful degradation under chaos (wait-freedom certification)")
	const n, trials = 8, 5
	fmt.Printf("n=%d, %d trials, %d crashes + %d stalls per trial (chaos-seed %d)\n\n",
		n, trials, chaos.crashes, chaos.stalls, chaos.seed)
	fmt.Printf("%-24s %-10s %-10s %-16s %s\n",
		"protocol", "survivors", "decided", "ops/survivor", "worst decision")
	for _, name := range []string{"cas", "counter-walk", "packed-fetch&add", "registers", "counter-walk/registers"} {
		var survivors, decided int
		var ops float64
		var worst time.Duration
		for trial := 0; trial < trials; trial++ {
			p, err := consensus.Resolve(name, n, uint64(trial+1))
			if err != nil {
				return err
			}
			plan := fault.RandomPlan(n, chaos.seed+uint64(trial), fault.PlanOptions{
				Crashes: chaos.crashes,
				Stalls:  chaos.stalls,
			})
			inputs := make([]int64, n)
			for i := range inputs {
				inputs[i] = int64((i + trial) % 2)
			}
			rep := fault.Run(p, inputs, plan, fault.Options{Deadline: chaos.deadline})
			if !rep.Ok() {
				return fmt.Errorf("%s: trial %d: %w", name, trial, rep.Violation)
			}
			survivors += len(rep.Survivors())
			for _, d := range rep.Decided {
				if d {
					decided++
				}
			}
			ops += rep.OpsPerSurvivor()
			for p, d := range rep.DecideTime {
				if rep.Decided[p] && d > worst {
					worst = d
				}
			}
		}
		fmt.Printf("%-24s %-10s %-10s %-16.1f %v\n",
			name,
			fmt.Sprintf("%d/%d", survivors, trials*n),
			fmt.Sprintf("%d", decided),
			ops/float64(trials), worst.Round(time.Microsecond))
	}
	return nil
}

func e12() error {
	header("E12 — §5 conjecture: the O(n) vs Ω(√n) gap")
	mdHeader("n", "upper (our registers)", "lower Ω(√n)")
	for _, n := range []int{4, 16, 64, 256, 1024} {
		mdRow(n, grouped(consensus.NewRegisters(n, 1).Registers()), math.Sqrt(float64(n)))
	}
	return nil
}
