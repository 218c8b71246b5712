package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"randsync/internal/frame"
	"randsync/internal/service"
	"randsync/internal/valency"
)

// Load shape shared by every workload: a closed loop (each caller
// blocks for its verdict before sending the next job), never more
// callers, engine workers or connections than the 2-core reference host
// has cores.
const (
	engineWorkers = 2 // valency.Options.Workers for direct calls; checkd's -workers default
	tenants       = 2 // client goroutines of the service workloads, one keep-alive connection each
)

// workload is one named set of inputs.  Op counts are fixed, not timed:
// a run measures perClientOps(seconds) operations per caller, sized so
// the window lasts about --seconds on the reference host, and the same
// arguments always run the same jobs, so exact counters repeat.
type workload struct {
	name string
	why  string
	// clients is the number of concurrent callers (1 direct, 2 service).
	clients int
	// opsPerSec is the per-caller operation rate on the reference host;
	// warmup is the per-caller count of unmeasured operations that
	// precede the window in every set-up.
	opsPerSec float64
	warmup    int
	// ref is the job the layer ladder runs on; heavyRef limits the
	// ladder to its in-RAM rungs where the disk rungs would take minutes.
	ref      service.JobSpec
	heavyRef bool
	newEnv   func(rc *runCtx) (env, error)
}

// minOps is the floor on measured operations per run, so every median
// rests on at least ten samples.
const minOps = 10

func (w *workload) perClientOps(seconds int) int {
	n := int(math.Round(w.opsPerSec * float64(seconds)))
	if floor := (minOps + w.clients - 1) / w.clients; n < floor {
		n = floor
	}
	return n
}

// runCtx is what one set-up of a workload's environment receives.
type runCtx struct {
	seed   uint64
	golden *golden
	// dir names a directory of the modelled disk owned by this
	// environment; nothing exists there yet.
	dir string
	// perClient is how many operations (warm-up included) each caller
	// will run, so job sequences are generated up front from the seed.
	perClient int
	// rec is nil in untraced runs.
	rec *recorder
	// fsys is the filesystem handed to the program: the modelled disk,
	// inside the counting wrapper in traced runs.
	fsys frame.FS
}

// env is a workload set up and ready to serve operations.  op runs the
// i-th operation of caller client (callers have independent sequences)
// and is safe to call from one goroutine per client.
type env interface {
	op(client, i int) opResult
	close() error
}

// opResult is one operation as its caller saw it.
type opResult struct {
	// latency is request → verified-format verdict document in hand.
	latency time.Duration
	configs int
	// fail is non-empty when the operation errored, was refused or ended
	// in a non-done state; wrong when its verdict differs from the golden
	// answer.
	fail, wrong string

	// rssMiB is the process's resident set as the operation completed.
	rssMiB float64

	// stats is the engine's counter block (direct workloads only).
	stats *valency.Stats
	// machines is the number of candidate machines a sweep pair
	// examined, solvers how many of them solve 2-consensus.
	machines, solvers int

	// Client-side parts of a service operation.
	submit, queued, running, fetch time.Duration
	duplicate                      bool
	jobID, artifact                string
}

// window is a batch of operations run back to back by every caller.
type window struct {
	results []opResult
	wall    time.Duration
}

// runOps has each caller run count operations of its own sequence,
// starting at index from, concurrently, and waits for all of them.
func runOps(e env, clients, from, count int) window {
	perClient := make([][]opResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]opResult, 0, count)
			for i := from; i < from+count; i++ {
				r := e.op(c, i)
				r.rssMiB = residentMiB()
				out = append(out, r)
			}
			perClient[c] = out
		}()
	}
	wg.Wait()
	w := window{wall: time.Since(start)}
	for _, rs := range perClient {
		w.results = append(w.results, rs...)
	}
	return w
}

func (w window) latencies() []float64 {
	out := make([]float64, 0, len(w.results))
	for _, r := range w.results {
		if r.fail == "" {
			out = append(out, r.latency.Seconds())
		}
	}
	return out
}

// tally counts failed and wrong operations and collects their messages.
func (w window) tally() (failed, wrong int, notes []string) {
	for i, r := range w.results {
		if r.fail != "" {
			failed++
			notes = append(notes, fmt.Sprintf("op %d failed: %s", i, r.fail))
		}
		if r.wrong != "" {
			wrong++
			notes = append(notes, fmt.Sprintf("op %d wrong verdict: %s", i, r.wrong))
		}
	}
	return failed, wrong, notes
}

func (w window) configs() (total int) {
	for _, r := range w.results {
		total += r.configs
	}
	return total
}

// mixedSpec is a validated job spec with the default mixed input vector.
func mixedSpec(protocol string, n int) service.JobSpec {
	s := service.JobSpec{Tenant: "bench", Protocol: protocol, N: n}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("bench: built-in job %s/%d is invalid: %v", protocol, n, err))
	}
	return s
}

// tinyZoo is the svc-small job population: every protocol explores at
// most 1 515 configurations, so engine time is negligible next to the
// service's own bookkeeping.  register-naive-2 is the one that violates.
func tinyZoo() []service.JobSpec {
	return []service.JobSpec{
		mixedSpec("cas", 5), mixedSpec("sticky", 4), mixedSpec("tas-2", 2), mixedSpec("swap-2", 2),
		mixedSpec("fetch&add-2", 2), mixedSpec("register-naive-2", 2),
		mixedSpec("packed-fetch&add", 3), mixedSpec("counter-walk", 2),
	}
}

// workloads is the benchmark's fixed set, in the order BENCHMARK.json
// lists them.
func workloads() []*workload {
	walk3 := mixedSpec("counter-walk", 3)
	walk4 := mixedSpec("counter-walk", 4)
	return []*workload{
		{
			name:    "ram-large",
			why:     "direct valency.Check(Workers 2) of counter-walk n=4 (463852 configs): sim encode/step and the explore sharded visited set do all the work; no disk, no service",
			clients: 1, opsPerSec: 1.0, warmup: 1, ref: walk4, heavyRef: true,
			newEnv: func(rc *runCtx) (env, error) {
				return newDirectEnv(rc, walk4, func(e *directEnv, i int) (*valency.Report, error) {
					// SpillFS is set to prove Check never touches it: the traced
					// run must count zero filesystem operations here.
					return valency.Check(e.proto, e.spec.Inputs, valency.Options{Workers: engineWorkers, SpillFS: rc.fsys}), nil
				})
			},
		},
		{
			name:    "spill-evict",
			why:     "direct valency.CheckSpill(Workers 2, 64 KiB hot set) of counter-walk n=3 (28499 configs): the explore spill tier and frame I/O dominate; the engine of ram-large used the evicting way",
			clients: 1, opsPerSec: 1.3, warmup: 1, ref: walk3,
			newEnv: func(rc *runCtx) (env, error) {
				return newDirectEnv(rc, walk3, func(e *directEnv, i int) (*valency.Report, error) {
					return valency.CheckSpill(e.proto, e.spec.Inputs, valency.Options{
						Workers: engineWorkers, MemBudget: 64 << 10,
						SpillDir: e.jobDir(i), SpillFS: rc.fsys,
					})
				})
			},
		},
		{
			name:    "svc-small",
			why:     "checkd over HTTP, 2 tenants, tiny jobs (at most 1515 configs), 70% fresh, 15% own resubmits, 15% the other tenant's spec: job records, store, scheduler and HTTP are the whole cost",
			clients: tenants, opsPerSec: 150, warmup: 100, ref: mixedSpec("cas", 5),
			newEnv: func(rc *runCtx) (env, error) { return newSvcEnv(rc, tinyZoo(), true) },
		},
		{
			name:    "svc-medium",
			why:     "checkd over HTTP, 2 tenants, fresh counter-walk n=3 jobs (28499 configs): the engine behind the API with checkd's spill and checkpoint options dominates; the 15.2x case de-confounded",
			clients: tenants, opsPerSec: 0.85, warmup: 1, ref: walk3,
			newEnv: func(rc *runCtx) (env, error) { return newSvcEnv(rc, []service.JobSpec{walk3}, false) },
		},
		{
			name:    "dist-loopback",
			why:     "direct dist.Loopback(2 workers, 16 shards) of the svc-medium job: coordinator, wire framing and batch round-trips dominate; isolates the wire tax",
			clients: 1, opsPerSec: 3.0, warmup: 3, ref: walk3,
			newEnv: func(rc *runCtx) (env, error) {
				return newDirectEnv(rc, walk3, func(e *directEnv, i int) (*valency.Report, error) { return loopback(&e.spec) })
			},
		},
		{
			name:    "tiny-sweep",
			why:     "direct hierarchy.SearchWith over one sticky bit (36864 machines, 36 solvers) then one register (20736, none): tens of thousands of sub-millisecond serial checks, so per-check fixed cost is everything",
			clients: 1, opsPerSec: 1.5, warmup: 1, ref: mixedSpec("sticky", 4),
			newEnv: newSweepEnv,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
