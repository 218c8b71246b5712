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

	"randsync/internal/valency"
	"randsync/internal/zoo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	name := fs.String("protocol", "counter-walk", "protocol: "+strings.Join(zoo.Names(), ", "))
	n := fs.Int("n", 2, "number of processes")
	r := fs.Int("r", 2, "object count for flood protocols / scan-machine")
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

	proto, err := zoo.Resolve(zoo.Spec{Name: *name, N: *n, R: *r, Rounds: *rounds})
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
	rep.PrintVerdict(os.Stdout)
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
