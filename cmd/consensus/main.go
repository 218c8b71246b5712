// Command consensus runs the live consensus protocols of §4 at scale and
// prints the space/work table behind experiments E5–E8: object instances
// used, registers used, wall time, and total shared-memory operations.
//
// With the chaos flags it becomes a fault-injection harness: every trial
// runs under a seeded, replayable crash/stall schedule (package fault)
// and the wait-freedom contract is certified on the survivors.  The
// command exits non-zero if any trial violates agreement, validity or
// wait-freedom, so chaos runs are scriptable in CI; every failure message
// includes the reproducing seed.
//
// Usage:
//
//	consensus -n 32 -trials 20
//	consensus -n 64 -trials 5 -protocols cas,packed-fetch&add
//	consensus -n 16 -crash 4 -stall 2 -chaos-seed 7 -deadline 5s
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"

	"randsync/internal/consensus"
	"randsync/internal/fault"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "consensus:", err)
		os.Exit(1)
	}
}

// defaultProtocols are the protocols a run without -protocols prints,
// every one that runs at any n: the step machines of package protocol run
// live, then the two live-only constructions.  -protocols also takes the
// two-process warm-ups (tas-2, swap-2, fetch&add-2, fetch&inc-2) at n = 2.
var defaultProtocols = []string{"cas", "counter-walk", "packed-fetch&add", "registers", "counter-walk/registers"}

// chaosConfig carries the fault-injection flags.
type chaosConfig struct {
	crashes  int
	stalls   int
	seed     uint64
	deadline time.Duration
}

func (c chaosConfig) active() bool { return c.crashes > 0 || c.stalls > 0 }

func run(args []string) error {
	fs := flag.NewFlagSet("consensus", flag.ContinueOnError)
	n := fs.Int("n", 16, "number of processes")
	trials := fs.Int("trials", 10, "trials per protocol")
	seed := fs.Uint64("seed", 1, "base random seed")
	protos := fs.String("protocols", strings.Join(defaultProtocols, ","),
		"comma-separated protocol names: registry names (modelcheck -h) plus registers and counter-walk/registers")
	var chaos chaosConfig
	fs.IntVar(&chaos.crashes, "crash", 0, "crash-stop this many processes per trial (chaos mode)")
	fs.IntVar(&chaos.stalls, "stall", 0, "inject this many bounded stalls per trial (chaos mode)")
	fs.Uint64Var(&chaos.seed, "chaos-seed", 1, "base seed for the fault schedules")
	fs.DurationVar(&chaos.deadline, "deadline", fault.DefaultDeadline,
		"wall-clock deadline per trial before the watchdog declares wait-freedom violated")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var selected []string
	for _, name := range strings.Split(*protos, ",") {
		name = strings.TrimSpace(name)
		if _, err := consensus.Resolve(name, *n, *seed); err != nil {
			return err
		}
		selected = append(selected, name)
	}

	if chaos.active() {
		fmt.Printf("n=%d processes, %d trials per protocol, chaos: %d crashes + %d stalls per trial (chaos-seed %d)\n\n",
			*n, *trials, chaos.crashes, chaos.stalls, chaos.seed)
		for _, name := range selected {
			if err := runChaos(name, *n, *trials, *seed, chaos); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Printf("n=%d processes, %d trials per protocol, mixed random inputs\n\n", *n, *trials)
	fmt.Printf("%-24s %-8s %-10s %-12s %-14s %-10s\n",
		"protocol", "objects", "registers", "ops/proc", "time/trial", "decided")
	for _, name := range selected {
		if err := runProtocol(name, *n, *trials, *seed); err != nil {
			return err
		}
	}
	return nil
}

// trialInputs derives a mixed random input vector for one trial.
func trialInputs(n int, seed uint64, trial int) []int64 {
	rng := rand.New(rand.NewPCG(seed, uint64(trial)))
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64(rng.IntN(2))
	}
	return inputs
}

// checkTrial verifies agreement and validity of one fault-free trial.
func checkTrial(name string, inputs, out []int64) error {
	valid := map[int64]bool{}
	for _, in := range inputs {
		valid[in] = true
	}
	for proc, d := range out {
		if d != out[0] {
			return fmt.Errorf("%s: agreement violated: %v", name, out)
		}
		if !valid[d] {
			return fmt.Errorf("%s: validity violated: P%d decided %d, inputs %v", name, proc, d, inputs)
		}
	}
	return nil
}

func runProtocol(name string, n, trials int, seed uint64) error {
	var totalOps int64
	var elapsed time.Duration
	decisions := map[int64]int{}
	objects, registers := 0, 0
	for trial := 0; trial < trials; trial++ {
		p, err := consensus.Resolve(name, n, seed+uint64(trial))
		if err != nil {
			return err
		}
		objects, registers = p.Objects(), p.Registers()
		inputs := trialInputs(n, seed, trial)
		out := make([]int64, n)
		start := time.Now()
		var wg sync.WaitGroup
		for proc := 0; proc < n; proc++ {
			wg.Add(1)
			go func(proc int) {
				defer wg.Done()
				out[proc] = p.Decide(proc, inputs[proc])
			}(proc)
		}
		wg.Wait()
		elapsed += time.Since(start)
		if err := checkTrial(name, inputs, out); err != nil {
			return err
		}
		decisions[out[0]]++
		totalOps += p.Ops()
	}
	fmt.Printf("%-24s %-8d %-10d %-12.1f %-14v 0:%d 1:%d\n",
		name, objects, registers,
		float64(totalOps)/float64(trials*n), elapsed/time.Duration(trials),
		decisions[0], decisions[1])
	return nil
}

// runChaos runs every trial of one protocol under a seeded fault schedule
// and certifies wait-freedom on the survivors, printing the graceful-
// degradation report.  The first violating trial is returned as an error
// (non-zero exit) with its reproducing seed embedded.
func runChaos(name string, n, trials int, seed uint64, chaos chaosConfig) error {
	fmt.Printf("%s\n", name)
	for trial := 0; trial < trials; trial++ {
		p, err := consensus.Resolve(name, n, seed+uint64(trial))
		if err != nil {
			return err
		}
		planSeed := chaos.seed + uint64(trial)
		plan := fault.RandomPlan(n, planSeed, fault.PlanOptions{
			Crashes: chaos.crashes,
			Stalls:  chaos.stalls,
		})
		rep := fault.Run(p, trialInputs(n, seed, trial), plan, fault.Options{Deadline: chaos.deadline})
		fmt.Printf("  trial %-3d [%v]\n            %s\n", trial, plan, rep.Summary())
		if !rep.Ok() {
			return fmt.Errorf("%s: trial %d: %w", name, trial, rep.Violation)
		}
	}
	return nil
}
