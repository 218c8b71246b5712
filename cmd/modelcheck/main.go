// Command modelcheck runs the exhaustive valency checker and the
// bivalence analysis against a named simulator-world protocol: every
// schedule and every coin outcome is explored, so a clean report is a
// machine-generated safety certificate for the instance (experiments E4,
// E11).
//
// Usage:
//
//	modelcheck -protocol counter-walk -n 3
//	modelcheck -protocol flood-registers -r 2 -n 2      # exhibits the violation
//	modelcheck -protocol register-consensus -n 2 -rounds 3 -bivalence
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"randsync/internal/protocol"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	name := fs.String("protocol", "counter-walk", "protocol: "+strings.Join(protocolNames, ", "))
	n := fs.Int("n", 2, "number of processes")
	r := fs.Int("r", 2, "object count for flood protocols")
	rounds := fs.Int64("rounds", 2, "round cap for register-consensus")
	budget := fs.Int("budget", 1<<22, "configuration budget")
	memBudget := fs.Int64("mem-budget", 0, "retained-byte budget (0 = unlimited); truncates the run, or sets the hot tier under -spill-dir")
	spillDir := fs.String("spill-dir", "", "enable the disk-tiered engine: spill cold visited-set shards and deep frontiers under this directory and write resumable checkpoints")
	resume := fs.Bool("resume", false, "resume a killed -spill-dir run from its last durable checkpoint")
	spillEvery := fs.Int64("spill-every", 0, "admissions between checkpoint manifests (0 = default 32768, negative = no checkpoints)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel exploration workers (1 = serial)")
	biv := fs.Bool("bivalence", false, "also run the bivalence analysis on mixed inputs")
	nosym := fs.Bool("nosym", false, "disable identical-process symmetry reduction")
	jsonOut := fs.Bool("json", false, "emit the verdict as JSON (suppresses -bivalence)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *spillDir == "" {
		return fmt.Errorf("-resume requires -spill-dir")
	}

	proto, err := lookup(*name, *n, *r, *rounds)
	if err != nil {
		return err
	}

	if !*jsonOut {
		fmt.Printf("model checking %s with n=%d over all schedules and coin outcomes (%d workers)...\n",
			proto.Name(), *n, *workers)
	}
	opts := valency.Options{
		MaxConfigs: *budget, MemBudget: *memBudget, Workers: *workers, NoSymmetry: *nosym,
		SpillDir: *spillDir, SpillResume: *resume, SpillCheckpointEvery: *spillEvery,
	}
	var rep *valency.Report
	var spillErr error
	if *spillDir != "" {
		rep, spillErr = valency.CheckAllInputsSpill(proto, *n, opts)
		if rep == nil {
			return spillErr
		}
	} else {
		rep = valency.CheckAllInputs(proto, *n, opts)
	}
	if *jsonOut {
		meta := map[string]any{
			"tool":       "modelcheck",
			"args":       args,
			"protocol":   *name,
			"n":          *n,
			"r":          *r,
			"rounds":     *rounds,
			"budget":     *budget,
			"mem_budget": *memBudget,
			"workers":    *workers,
			"nosym":      *nosym,
		}
		if *spillDir != "" {
			meta["spill_dir"] = *spillDir
			meta["resume"] = *resume
		}
		if spillErr != nil {
			meta["spill_error"] = spillErr.Error()
		}
		j := rep.JSON(meta)
		out, err := j.Encode()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return spillErr
	}
	switch {
	case rep.Violation != nil:
		fmt.Printf("VIOLATION (%v): %s\n", rep.Violation.Kind, rep.Violation.Detail)
		fmt.Printf("inputs %v, trace of %d steps:\n", rep.Inputs, len(rep.Violation.Trace))
		fmt.Println(rep.Violation.Trace)
	case rep.Complete:
		fmt.Printf("SAFE: %d configurations explored exhaustively, no violation.\n", rep.Configs)
	default:
		fmt.Printf("no violation within budget (%d configurations explored; incomplete).\n", rep.Configs)
	}
	if rep.Livelock {
		fmt.Println("note: adversarial non-termination possible (expected for randomized protocols).")
	}
	if s := rep.Stats; s != nil {
		hitRate := 0.0
		if s.Generated > 0 {
			hitRate = float64(s.DedupHits) / float64(s.Generated)
		}
		fmt.Printf("throughput: %.0f configs/s (%d workers, %v); dedup hit-rate %.1f%%, peak frontier %d, steals %d, key bytes retained %d\n",
			s.Rate(rep.Configs), s.Workers, s.Elapsed.Round(1e6), 100*hitRate, s.PeakFrontier, s.Steals, s.KeyBytes)
		if s.Stripes > 0 {
			fmt.Printf("visited set: %d stripes, %d fingerprint collisions, per-stripe keys min/max %d/%d\n",
				s.Stripes, s.Collisions, s.MinStripeKeys, s.MaxStripeKeys)
		}
		if sp := s.Spill; sp != nil {
			resumed := ""
			if sp.Resumed {
				resumed = " (resumed)"
			}
			fmt.Printf("spill: %d flushes / %d compactions to disk, %d tier lookups (%d hits, %d block reads / %d bytes), frontier %d spilled / %d loaded, %d checkpoints, %d I/O retries%s\n",
				sp.Flushes, sp.Compactions, sp.Lookups, sp.LookupHits, sp.BlockReads, sp.BlockBytes,
				sp.FrontierSpilled, sp.FrontierLoaded, sp.Checkpoints, sp.Retries, resumed)
		}
	}
	if spillErr != nil {
		return fmt.Errorf("run degraded to an incomplete verdict: %w", spillErr)
	}

	if *biv {
		inputs := make([]int64, *n)
		for i := range inputs {
			inputs[i] = int64(i % 2)
		}
		fmt.Printf("\nbivalence analysis on inputs %v...\n", inputs)
		brep, err := valency.Bivalence(proto, inputs, valency.Options{MaxConfigs: *budget})
		if err != nil {
			return err
		}
		if !brep.Complete {
			fmt.Println("analysis incomplete (budget).")
			return nil
		}
		fmt.Printf("initial configuration: %v; %d of %d configurations bivalent\n",
			brep.Initial, brep.BivalentCount, brep.Configs)
		if brep.ForeverBivalent {
			fmt.Println("the adversary can remain bivalent FOREVER (FLP-style non-termination).")
		} else if brep.Initial == valency.Bivalent {
			fmt.Printf("the adversary is eventually forced to a critical configuration (reached after %d steps).\n",
				len(brep.CriticalTrace))
		}
	}
	return nil
}

// protocolNames lists, in -protocol help order, every name lookup accepts.
var protocolNames = []string{
	"cas", "tas-2", "swap-2", "fetch&add-2", "fetch&inc-2", "register-naive-2",
	"counter-walk", "packed-fetch&add", "register-consensus",
	"flood-registers", "flood-swap", "flood-mixed",
}

// lookup resolves a protocol name.
func lookup(name string, n, r int, rounds int64) (sim.Protocol, error) {
	switch name {
	case "cas":
		return protocol.CASConsensus{}, nil
	case "tas-2":
		return protocol.NewTAS2(), nil
	case "swap-2":
		return protocol.NewSwap2(), nil
	case "fetch&add-2":
		return protocol.NewFetchAdd2(), nil
	case "fetch&inc-2":
		return protocol.NewFetchInc2(), nil
	case "register-naive-2":
		return protocol.RegisterNaive2{}, nil
	case "counter-walk":
		return protocol.NewCounterWalk(n), nil
	case "packed-fetch&add":
		return protocol.NewPackedFetchAdd(n), nil
	case "register-consensus":
		return protocol.NewRegisterConsensus(n, rounds), nil
	case "flood-registers":
		return protocol.NewRegisterFlood(r), nil
	case "flood-swap":
		return protocol.NewSwapFlood(r), nil
	case "flood-mixed":
		return protocol.NewMixedFlood(r), nil
	}
	return nil, fmt.Errorf("unknown protocol %q", name)
}
