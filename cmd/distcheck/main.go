// Command distcheck runs the exhaustive valency checker as a
// coordinator/worker cluster (internal/dist): the coordinator owns the
// visited set, workers replay and expand frontier
// configurations shipped to them as schedules, and the verdict is
// identical to a serial modelcheck run of the same job.
//
// Four modes:
//
//	distcheck -loopback 4 -protocol counter-walk -n 3        # single binary
//	distcheck -listen :7001 -expect 2 -protocol cas -n 8 -all -checkpoint cas8.ckpt
//	distcheck -join host:7001                                 # on each worker box
//	distcheck -submit http://host:8347 -tenant ci -protocol cas   # via checkd
//
// A worker needs no job flags — the coordinator ships the job over the
// wire.  With -checkpoint, the coordinator snapshots periodically and a
// rerun of the same command resumes from the snapshot (-resume insists
// on it).  SIGINT/SIGTERM on a coordinator (or loopback run) is a
// graceful drain: a final checkpoint is written before exit, so the
// same command resumes instead of restarting.  The cluster self-heals:
// workers reconnect under seeded backoff and rejoin as themselves, a
// restarted coordinator picks the job back up from its checkpoint while
// workers keep retrying, and -chaos-net-seed drives a deterministic
// network-chaos proxy for soak testing the recovery machinery in
// loopback mode.
//
// -submit hands the job to a running checkd daemon instead of checking
// here: the daemon runs it on its in-process disk-tiered engine (never
// on a cluster), and the response is the stored verdict document,
// fetched from the daemon's content-addressed artifact store.  -async returns after
// submission; -wait-job picks a submitted job back up later; -ping
// probes daemon health; -cancel-job cancels a submitted job;
// -job-deadline bounds a submitted job's wall-clock lifetime.  Submits
// rejected by tenant quotas (HTTP 429) are retried after the daemon's
// Retry-After delay, up to -quota-wait.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"randsync/internal/dist"
	"randsync/internal/service"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "distcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("distcheck", flag.ContinueOnError)
	listen := fs.String("listen", "", "coordinator: listen address, e.g. :7001")
	expect := fs.Int("expect", 1, "coordinator: number of workers to wait for")
	join := fs.String("join", "", "worker: coordinator address to join")
	loopback := fs.Int("loopback", 0, "single-binary mode: run coordinator plus N in-process workers")

	spec := zoo.Flags(fs)
	inputsFlag := fs.String("inputs", "", "comma-separated input vector, e.g. 0,1 (default: mixed 0,1,0,1,...)")
	all := fs.Bool("all", false, "sweep all 2^n input vectors (CheckAllInputs)")

	budget := fs.Int("budget", 1<<22, "configuration budget")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker-local exploration pool width")
	nosym := fs.Bool("nosym", false, "disable identical-process symmetry reduction")
	checkpoint := fs.String("checkpoint", "", "coordinator: checkpoint file (resumes if present)")
	resume := fs.Bool("resume", false, "coordinator: require resuming from -checkpoint (error if no snapshot exists)")
	netTimeout := fs.Duration("net-timeout", 30*time.Second, "per-connection read/write deadline")
	heartbeat := fs.Duration("heartbeat", time.Second, "coordinator ping interval; recovery latency scales with it")
	deadAfter := fs.Duration("dead-after", 10*time.Second, "pong silence after which a worker is declared dead and its batches re-queued (a worker stuck in a batch this long counts as dead)")
	chaosSeed := fs.Uint64("chaos-net-seed", 0, "loopback: interpose a deterministic network-chaos proxy seeded with this value")
	retry := fs.Int("retry", 0, "worker: consecutive failed connection attempts before giving up (default 30)")
	workerID := fs.Uint64("worker-id", 0, "worker: stable identity announced on every reconnect (default random)")
	jsonOut := fs.Bool("json", false, "emit the verdict as JSON")

	submit := fs.String("submit", "", "client: submit the job to a checkd daemon at this base URL (it runs the job on its disk-tiered engine)")
	tenant := fs.String("tenant", "default", "client: tenant name for -submit")
	async := fs.Bool("async", false, "client: return after submission instead of waiting for the verdict")
	waitJob := fs.String("wait-job", "", "client: wait for an already-submitted job id and print its verdict document")
	waitTimeout := fs.Duration("wait-timeout", 10*time.Minute, "client: how long -submit/-wait-job wait for a verdict")
	quotaWait := fs.Duration("quota-wait", 30*time.Second, "client: total time -submit waits out 429 Retry-After quota rejections (0 = fail immediately)")
	jobDeadline := fs.Int("job-deadline", 0, "client: job deadline in seconds for -submit (0 = none; an expired job lands in the timeout state)")
	cancelJob := fs.String("cancel-job", "", "client: cancel a submitted job id (needs -submit URL to name the daemon)")
	ping := fs.String("ping", "", "client: probe a checkd daemon's health at this base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosSeed != 0 && *loopback <= 0 {
		// The chaos proxy sits between in-process workers and their
		// coordinator; no other mode has a wire it could interpose on.
		return fmt.Errorf("-chaos-net-seed needs -loopback N")
	}

	if *ping != "" {
		c := &service.Client{Base: *ping}
		h, err := c.Health()
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d queued, %d running)\n", h.Status, h.Queued, h.Running)
		return nil
	}
	if *cancelJob != "" {
		if *submit == "" {
			return fmt.Errorf("-cancel-job needs -submit URL to name the daemon")
		}
		c := &service.Client{Base: *submit}
		st, err := c.Cancel(*cancelJob)
		if err != nil {
			return err
		}
		if st.State == service.StateRunning {
			fmt.Fprintf(os.Stderr, "distcheck: job %s cancelling (engine draining to checkpoint)\n", st.ID)
		}
		fmt.Println(st.State)
		return nil
	}
	if *join != "" {
		fmt.Fprintf(os.Stderr, "distcheck: joining %s\n", *join)
		return dist.Work(*join, dist.WorkerOptions{
			ID:          *workerID,
			MaxAttempts: *retry,
			NetTimeout:  *netTimeout,
		})
	}

	if err := spec.Validate(); err != nil {
		return err
	}
	var inputs []int64
	if !*all {
		var err error
		if inputs, err = parseInputs(*inputsFlag, spec.N); err != nil {
			return err
		}
	}
	if *submit != "" || *waitJob != "" {
		return runClient(*submit, *waitJob, service.JobSpec{
			Tenant: *tenant, Protocol: spec.Name, N: spec.N, R: spec.R, Rounds: spec.Rounds, Seed: spec.Seed,
			Inputs: inputs, AllInputs: *all, Budget: *budget,
			NoSymmetry: *nosym, DeadlineSeconds: *jobDeadline,
		}, *async, *waitTimeout, *quotaWait)
	}

	if *resume {
		if *checkpoint == "" {
			return fmt.Errorf("-resume needs -checkpoint")
		}
		if _, err := os.Stat(*checkpoint); err != nil {
			return fmt.Errorf("-resume: no checkpoint to resume from: %v", err)
		}
	}

	job := dist.Job{Spec: *spec, Inputs: inputs, AllInputs: *all}
	// SIGINT/SIGTERM on the coordinator is a graceful drain, not a kill:
	// the run stops at a final checkpoint and the same command resumes.
	// A second signal falls through to the default handler (hard exit).
	intr := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		signal.Stop(sigc)
		close(intr)
	}()

	opts := dist.Options{
		CheckpointPath: *checkpoint,
		NetTimeout:     *netTimeout,
		HeartbeatEvery: *heartbeat,
		DeadAfter:      *deadAfter,
		Interrupt:      intr,
		Valency: valency.Options{
			MaxConfigs: *budget,
			Workers:    *workers,
			NoSymmetry: *nosym,
		},
	}

	var rep *valency.Report
	var err error
	switch {
	case *loopback > 0:
		rep, err = dist.LoopbackChaos(dist.LoopbackConfig{
			Workers:   *loopback,
			ChaosSeed: *chaosSeed,
		}, job, opts)
	case *listen != "":
		var ln net.Listener
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "distcheck: waiting for %d workers on %s\n", *expect, ln.Addr())
		rep, err = dist.Serve(ln, *expect, job, opts)
	default:
		return fmt.Errorf("pick a mode: -loopback N, -listen addr, -join addr, or -submit URL")
	}
	if errors.Is(err, valency.ErrInterrupted) {
		fmt.Fprintln(os.Stderr, interruptedMessage(*checkpoint))
		return nil
	}
	if err != nil {
		return err
	}
	return report(rep, job, *jsonOut, args)
}

// interruptedMessage is what an interrupted coordinator tells the user.
// It promises a checkpoint only if one is on disk: a run interrupted
// before the cluster assembled never wrote one, and a -resume rerun
// would find nothing to resume.
func interruptedMessage(checkpoint string) string {
	if checkpoint == "" {
		return "distcheck: interrupted; no -checkpoint set, progress discarded"
	}
	if _, err := os.Stat(checkpoint); err != nil {
		return fmt.Sprintf("distcheck: interrupted before the first checkpoint; nothing written to %s — a rerun starts over", checkpoint)
	}
	return fmt.Sprintf("distcheck: interrupted; checkpoint written to %s — rerun the same command (or add -resume) to continue", checkpoint)
}

// runClient is the -submit / -wait-job / -async path: hand the job to a
// checkd daemon and (unless async) print the stored verdict document —
// the exact bytes the daemon's content-addressed artifact store holds.
func runClient(base, waitJob string, spec service.JobSpec, async bool, timeout, quotaWait time.Duration) error {
	c := &service.Client{Base: base, QuotaWait: quotaWait}
	id := waitJob
	if waitJob == "" {
		sr, err := c.Submit(spec)
		if err != nil {
			return err
		}
		id = sr.Job.ID
		if sr.Duplicate {
			fmt.Fprintf(os.Stderr, "distcheck: job %s already submitted (state %s)\n", id, sr.Job.State)
		} else {
			fmt.Fprintf(os.Stderr, "distcheck: submitted job %s\n", id)
		}
		if async {
			fmt.Println(id)
			return nil
		}
	} else if base == "" {
		return fmt.Errorf("-wait-job needs -submit URL to name the daemon")
	}
	st, err := c.Wait(id, timeout)
	if err != nil {
		return err
	}
	switch st.State {
	case service.StateFailed:
		return fmt.Errorf("job %s failed: %s", id, st.Error)
	case service.StateTimeout:
		return fmt.Errorf("job %s hit its deadline (checkpoint retained; resubmit to resume)", id)
	case service.StateCancelled:
		return fmt.Errorf("job %s was cancelled", id)
	}
	doc, err := c.Artifact(st.Artifact)
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	return nil
}

func parseInputs(s string, n int) ([]int64, error) {
	inputs := make([]int64, n)
	if s == "" {
		for i := range inputs {
			inputs[i] = int64(i % 2)
		}
		return inputs, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-inputs has %d values, -n is %d", len(parts), n)
	}
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-inputs: %v", err)
		}
		inputs[i] = v
	}
	return inputs, nil
}

func report(rep *valency.Report, job dist.Job, jsonOut bool, args []string) error {
	if jsonOut {
		j := rep.JSON(map[string]any{
			"tool": "distcheck",
			"args": args,
			"spec": job.Spec.String(),
		})
		out, err := j.Encode()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	rep.PrintVerdict(os.Stdout)
	if s := rep.Stats; s != nil {
		fmt.Printf("cluster: %d workers; %d batches, %d items shipped, %d recoveries, %d checkpoints\n",
			s.Workers, s.Batches, s.RemoteItems, s.Recoveries, s.Checkpoints)
		fmt.Printf("throughput: %.0f configs/s (%v); dedup hits %d, key bytes %d\n",
			s.Rate(rep.Configs), s.Elapsed.Round(1e6), s.DedupHits, s.KeyBytes)
		if r := s.Recovery; r != nil && (r.Reconnects+r.WorkerDeaths+r.CheckpointResumes+r.ChaosEvents > 0) {
			fmt.Printf("recovery: %d reconnects, %d worker deaths, %d batches re-queued, %d checkpoint resumes",
				r.Reconnects, r.WorkerDeaths, r.RequeuedBatches, r.CheckpointResumes)
			if r.ChaosSeed != 0 {
				fmt.Printf("; %d chaos events (seed %d)", r.ChaosEvents, r.ChaosSeed)
			}
			fmt.Println()
		}
	}
	return nil
}
