// Chaos: wait-freedom under a shrinking survivor set.
//
// Wait-freedom is the paper's robustness contract: every surviving
// process finishes in a bounded number of its own steps no matter how
// many others crash.  This example makes the contract visible by
// attrition: starting from n processes, each round crash-stops one more
// process mid-protocol — at a seeded, replayable operation index — and
// runs a fresh consensus instance with the remaining survivors plus the
// newly doomed process.  Round after round the survivor set shrinks, yet
// every round certifies: all survivors decide, they agree, the value is
// someone's input.  The final round is one process running utterly alone
// against n-1 corpses — solo termination, the weakest form of
// wait-freedom and the hypothesis of the paper's §3 lower bounds.
//
// Every fault schedule derives from the seed, so a reported violation
// (none expected!) reproduces exactly.
//
// Run with: go run ./examples/chaos
package main

import (
	"fmt"
	"os"

	"randsync/internal/consensus"
	"randsync/internal/fault"
	"randsync/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 6
	const seed = 42

	fmt.Printf("Kill-one-per-round: %d-process consensus (three-counter walk, Theorem 4.2),\n", n)
	fmt.Printf("crashing one more process each round until a single survivor remains.\n\n")

	// doomed accumulates the crash events: round r replays rounds 1..r-1's
	// crashes and adds one more, so the survivor set shrinks by one per
	// round.  Crash op-indexes come from the seeded plan generator.
	var doomed []fault.Event
	for round := 1; round < n; round++ {
		victim := n - round // kill from the top, P0 survives to the end
		// The walk needs only a handful of ops per process, so cap the
		// crash index low enough that the kill lands mid-protocol.
		atOp := fault.RandomPlan(n, seed+uint64(round), fault.PlanOptions{Crashes: 1, MaxAtOp: 6}).Events[0].AtOp
		doomed = append(doomed, fault.Event{Proc: victim, Kind: fault.Crash, AtOp: atOp})
		plan := fault.Plan{Seed: seed + uint64(round), Events: append([]fault.Event(nil), doomed...)}

		p := consensus.New("counter-walk", protocol.NewCounterWalk(n), n, seed+uint64(round))
		inputs := make([]int64, n)
		for i := range inputs {
			inputs[i] = int64((i + round) % 2)
		}
		rep := fault.Run(p, inputs, plan, fault.Options{})
		fmt.Printf("round %d: crash P%d@%d (now %d dead)\n", round, victim, atOp, len(doomed))
		fmt.Printf("         %s\n", rep.Summary())
		if !rep.Ok() {
			return rep.Violation
		}
	}

	fmt.Println()
	fmt.Printf("Solo finale: every process but P0 crashes before its first operation.\n")
	var events []fault.Event
	for proc := 1; proc < n; proc++ {
		events = append(events, fault.Event{Proc: proc, Kind: fault.Crash, AtOp: 0})
	}
	p := consensus.New("counter-walk", protocol.NewCounterWalk(n), n, seed)
	rep := fault.Run(p, []int64{1, 0, 0, 0, 0, 0}, fault.Plan{Seed: seed, Events: events},
		fault.Options{})
	fmt.Printf("         %s\n", rep.Summary())
	if !rep.Ok() {
		return rep.Violation
	}
	if !rep.Decided[0] || rep.Decision[0] != 1 {
		return fmt.Errorf("solo survivor should decide its own input 1, got decided=%v value=%d",
			rep.Decided[0], rep.Decision[0])
	}
	fmt.Println()
	fmt.Println("Every round certified: survivors decide, agree, and decide a proposed value —")
	fmt.Println("wait-freedom in action, down to nondeterministic solo termination (§2, §3).")
	return nil
}
