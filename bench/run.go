package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"randsync/internal/dist"
	"randsync/internal/frame"
	"randsync/internal/valency"
)

// sizing is how much work one run does.
type sizing struct {
	warmup  int // unmeasured ops per caller before each window
	ops     int // measured ops per caller
	setups  int // set-ups timed for setup_s (the last one serves the window)
	samples int // ladder samples per rung
	micro   int // configurations / repetitions of the micro loops
}

func (w *workload) sizing(seconds int, traced, smoke bool) sizing {
	switch {
	case smoke:
		return sizing{warmup: 1, ops: 2, setups: 1, samples: 1, micro: 256}
	case traced:
		// The traced run spends its time on two short windows (tracing
		// off, tracing on), the ladder and the micro loops.
		ops := w.perClientOps(seconds) / 3
		if ops < 3 {
			ops = 3
		}
		return sizing{warmup: w.warmup, ops: ops, setups: 1, samples: 3, micro: 4096}
	}
	return sizing{warmup: w.warmup, ops: w.perClientOps(seconds), setups: 3}
}

// hostRecord says where and on what a result was measured.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Rev        string `json:"git_rev"`
	Seed       uint64 `json:"seed"`
}

func host(seed uint64, root string) hostRecord {
	h := hostRecord{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Rev: "unknown", Seed: seed}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The acceptance driver's checkout is not a git repository; the
	// revision is then simply unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Rev = strings.TrimSpace(string(out))
	}
	return h
}

// result is one run of one workload.
type result struct {
	Workload string     `json:"workload"`
	Traced   bool       `json:"traced"`
	Host     hostRecord `json:"host"`
	// Attempted counts every operation run, warm-up included; Failed
	// those that errored, were refused or ended non-done; Wrong those
	// whose verdict differs from the golden answer (ladder rungs
	// included).  Samples is the number of latencies behind the medians.
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Wrong     int               `json:"wrong_verdicts"`
	Samples   int               `json:"latency_samples"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// runner carries one run's fixed inputs.
type runner struct {
	w    *workload
	seed uint64
	size sizing
	// loadGolden reads the known answers; every set-up calls it, as a
	// fresh process would.
	loadGolden func() (*golden, error)
	golden     *golden
	// scratch names this run's private directory, on the modelled disk
	// and (traced runs' real-disk probes) on the real one, where it is
	// removed at the end.
	scratch string
	// outDir receives <workload>.trace.json in traced runs.
	outDir string
	envs   int
}

// setup builds a fresh environment on fsys and runs the warm-up
// operations on it.
func (r *runner) setup(rec *recorder, fsys frame.FS) (env, window, error) {
	r.envs++
	rc := &runCtx{
		seed: r.seed, golden: r.golden, rec: rec, fsys: fsys,
		dir:       filepath.Join(r.scratch, fmt.Sprintf("env-%d", r.envs)),
		perClient: r.size.warmup + r.size.ops,
	}
	e, err := r.w.newEnv(rc)
	if err != nil {
		return nil, window{}, err
	}
	return e, runOps(e, r.w.clients, 0, r.size.warmup), nil
}

func (r *runner) measure(e env) window {
	return runOps(e, r.w.clients, r.size.warmup, r.size.ops)
}

// run executes the workload once: untraced it reports the end-to-end
// metrics, traced the per-layer ones.
func (r *runner) run(traced bool) (*result, error) {
	defer r.cleanup()
	res := &result{Workload: r.w.name, Traced: traced}

	// Set-up is timed as a whole — fresh disk, daemon start,
	// protocol resolution, golden load, warm-up — several times over,
	// and reported as the median, so work moved out of the window and
	// into set-up shows up here.
	var setups []float64
	var e env
	for i := 0; i < r.size.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r.golden, err = r.loadGolden(); err != nil {
			return nil, err
		}
		var warm window
		if e, warm, err = r.setup(nil, newMemDisk()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.absorb(warm)
	}

	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	win := r.measure(e)
	var after runtime.MemStats
	peakRSS := 0.0
	if traced {
		runtime.ReadMemStats(&after)
		peakRSS = peakRSSMiB()
	}
	res.absorb(win)
	lat := win.latencies()
	res.Samples = len(lat)
	if err := e.close(); err != nil {
		return nil, err
	}

	if !traced {
		res.Metrics = metricSet(endToEndSpecs, map[string]float64{
			"verdict_s_p50": median(lat),
			"jobs_per_s":    ratio(float64(len(lat)), win.wall.Seconds()),
			"job_rss_mb":    medianRSS(win),
			"setup_s":       median(setups),
		})
		return res, nil
	}

	values, spans, rungs, err := r.layers(res, win, lat, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	if err != nil {
		return nil, err
	}
	values["peak_rss_mb"] = peakRSS
	res.Metrics = metricSet(perLayerSpecs, values)
	return res, r.writeTrace(res, spans, rungs)
}

// cleanup removes the run's scratch directory: the real-disk probes of
// a traced run are all that is ever written there.
func (r *runner) cleanup() { os.RemoveAll(r.scratch) }

// medianRSS is the memory figure of a window: the resident set sampled
// as each job completes — when everything the job touched is still
// mapped, the Go runtime returning memory lazily — and the median of
// those samples rather than the process's high-water mark, which a
// single collector overshoot sets for the whole run.
func medianRSS(w window) float64 {
	xs := make([]float64, len(w.results))
	for i, r := range w.results {
		xs[i] = r.rssMiB
	}
	return median(xs)
}

// absorb folds a window's operations into the result's counts.  Warm-up
// operations count too: a failure or a wrong verdict before the window
// is still one.
func (res *result) absorb(w window) {
	failed, wrong, notes := w.tally()
	res.Attempted += len(w.results)
	res.Failed += failed
	res.Wrong += wrong
	res.Notes = append(res.Notes, notes...)
}

// layers runs the traced half of a traced run — a second window with
// spans and the counting filesystem on, the ladder, the micro loops —
// and returns every per-layer value.  untraced is the window just
// measured with tracing off, lat its latencies.
func (r *runner) layers(res *result, untraced window, lat []float64, mallocs, allocBytes uint64) (map[string]float64, []span, []*rung, error) {
	v := make(map[string]float64)
	w := r.w

	rec := newRecorder()
	jobOf := directJobOf
	if w.clients == tenants {
		jobOf = svcJobOf
	}
	cfs := newCountFS(newMemDisk(), rec, jobOf)
	e, warm, err := r.setup(rec, cfs)
	if err != nil {
		return nil, nil, nil, err
	}
	res.absorb(warm)
	roundtrip := 0.0
	if se, ok := e.(*svcEnv); ok {
		var herr error
		roundtrip = timeLoop(64, func() {
			if _, err := se.clients[0].Health(); err != nil {
				herr = err
			}
		})
		if herr != nil {
			return nil, nil, nil, herr
		}
	}
	fsBefore := cfs.snapshot()
	tracedWin := r.measure(e)
	fsJob := cfs.snapshot().sub(fsBefore)
	res.absorb(tracedWin)
	if err := e.close(); err != nil {
		return nil, nil, nil, err
	}
	tracedLat := tracedWin.latencies()
	jobs := float64(len(tracedLat))

	p50 := median(lat)
	v["trace_overhead"] = ratio(median(tracedLat), p50)
	if topPercentile(len(lat)) >= 90 {
		v["verdict_s_p90"] = percentile(lat, 90)
	}
	configs := float64(untraced.configs())
	v["valency.configs_per_s"] = ratio(configs, untraced.wall.Seconds())
	v["valency.allocs_per_config"] = ratio(float64(mallocs), configs)
	v["valency.alloc_bytes_per_config"] = ratio(float64(allocBytes), configs)

	v["frame.creates_per_job"] = ratio(float64(fsJob.Creates), jobs)
	v["frame.syncs_per_job"] = ratio(float64(fsJob.Syncs), jobs)
	v["frame.renames_per_job"] = ratio(float64(fsJob.Renames), jobs)
	v["frame.bytes_written_per_job"] = ratio(float64(fsJob.BytesWritten), jobs)
	v["frame.bytes_read_per_job"] = ratio(float64(fsJob.BytesRead), jobs)
	v["frame.sync_s_per_job"] = ratio(fsJob.SyncTime.Seconds(), jobs)
	v["frame.write_s_per_job"] = ratio(fsJob.WriteTime.Seconds(), jobs)
	v["frame.read_s_per_job"] = ratio(fsJob.ReadTime.Seconds(), jobs)

	// The ladder and the micro loops run on the workload's reference job.
	lad, wrong, err := runLadder(w.ref, w.heavyRef, r.size.samples, r.scratch, r.seed, r.golden)
	res.Wrong += len(wrong)
	res.Notes = append(res.Notes, wrong...)
	if err != nil {
		return nil, nil, nil, err
	}
	rungs := lad.ordered()
	v["valency.serial.check_s"] = lad.median("serial")
	v["valency.sharded.check_s"] = lad.median("sharded")
	v["valency.spill_ram.check_s"] = lad.median("spill_ram")
	v["valency.spill_ckpt.check_s"] = lad.median("spill_ckpt")
	v["valency.spill_evict.check_s"] = lad.median("spill_evict")
	v["service.alone.verdict_s"] = lad.median("service")
	v["dist.loopback.check_s"] = lad.median("dist")
	for _, rg := range rungs {
		if rg.Base != "" {
			v["ladder."+rg.Name+"_over_"+rg.Base] = rg.Ratio
		}
	}
	v["dist.vs_sharded_ratio"] = ratio(lad.median("dist"), lad.median("sharded"))
	v["service.engine_share"] = ratio(lad.median("spill_ckpt"), lad.median("service"))

	// Engine counters come from the run that is the workload's own path:
	// the last traced operation of a direct workload, the ladder's
	// checkd-options rung for a service workload (whose reports stay
	// server-side).
	var engine *valency.Stats
	if last := tracedWin.results[len(tracedWin.results)-1]; last.stats != nil {
		engine = last.stats
	} else if rg := lad["spill_ckpt"]; rg != nil && w.clients == tenants {
		engine = rg.stats
	}
	refConfigs := float64(r.golden.Jobs[jobKey(&w.ref)].Configs)
	if engine != nil {
		v["explore.dedup_ratio"] = ratio(float64(engine.DedupHits), float64(engine.Generated))
		v["explore.handoff_items_per_config"] = ratio(float64(engine.HandoffItems), refConfigs)
		v["explore.recycled_batch_ratio"] = ratio(float64(engine.RecycledBatches), float64(engine.HandoffBatches))
		v["explore.peak_frontier"] = float64(engine.PeakFrontier)
		v["explore.key_bytes"] = float64(engine.KeyBytes)
		if sp := engine.Spill; sp != nil {
			v["explore.spill.flushes"] = float64(sp.Flushes)
			v["explore.spill.compactions"] = float64(sp.Compactions)
			v["explore.spill.lookups_per_config"] = ratio(float64(sp.Lookups), refConfigs)
			v["explore.spill.lookup_hit_ratio"] = ratio(float64(sp.LookupHits), float64(sp.Lookups))
			v["explore.spill.frontier_spilled"] = float64(sp.FrontierSpilled)
			v["explore.spill.checkpoints"] = float64(sp.Checkpoints)
			v["explore.spill.bytes_on_disk"] = float64(sp.Bytes)
		}
		if engine.Shards > 0 { // a cluster run: the local engines leave the partition width 0
			v["dist.batches_per_job"] = float64(engine.Batches)
			v["dist.remote_items_per_config"] = ratio(float64(engine.RemoteItems), refConfigs)
			v["dist.checkpoints"] = float64(engine.Checkpoints)
		}
	}

	var machines int
	for _, op := range untraced.results {
		machines += op.machines
	}
	v["hierarchy.machines_per_s"] = ratio(float64(machines), untraced.wall.Seconds())
	v["hierarchy.solvers"] = float64(untraced.results[len(untraced.results)-1].solvers)

	if w.clients == tenants {
		serviceShares(v, tracedWin, roundtrip)
	}

	proto, err := dist.Resolve(w.ref.ProtoSpec())
	if err != nil {
		return nil, nil, nil, err
	}
	v["sim.appendkey_ns"], v["sim.step_ns"], v["sim.clone_ns"], v["sim.key_bytes"] = simMicro(proto, w.ref.Inputs, r.seed, r.size.micro)
	v["explore.sharded.emits_per_s"], v["explore.sharded.dedup_ratio"] = exploreMicro(r.seed, 50*r.size.micro)
	if v["frame.write_file_atomic_s"], err = frameMicro(filepath.Join(r.scratch, "frame-micro"), 64); err != nil {
		return nil, nil, nil, err
	}
	refRep := valency.Check(proto, w.ref.Inputs, valency.Options{})
	v["valency.report_json_s"] = timeLoop(32, func() { refRep.JSON(w.ref.Repro()).Encode() })
	if v["service.store_put_s"], v["service.store_get_s"], v["service.verdict_doc_s"], err = storeMicro(filepath.Join(r.scratch, "store-micro"), 64, refRep, &w.ref); err != nil {
		return nil, nil, nil, err
	}

	return v, rec.spans, rungs, nil
}

// serviceShares fills the service layer's client-side figures from the
// traced window: medians of the three client calls, the dedup shares,
// and the share of the median job no named call accounts for.
func serviceShares(v map[string]float64, win window, roundtrip float64) {
	var submit, queued, running, fetch, whole []float64
	var dups, executed, storeDups int
	seen := make(map[string]string) // artifact hash → first job id that produced it
	for _, r := range win.results {
		if r.fail != "" {
			continue
		}
		submit = append(submit, r.submit.Seconds())
		queued = append(queued, r.queued.Seconds())
		running = append(running, r.running.Seconds())
		fetch = append(fetch, r.fetch.Seconds())
		whole = append(whole, r.latency.Seconds())
		if r.duplicate {
			dups++
			continue
		}
		executed++
		if first, ok := seen[r.artifact]; ok && first != r.jobID {
			storeDups++
		} else if !ok {
			seen[r.artifact] = r.jobID
		}
	}
	v["service.submit_s"] = median(submit)
	v["service.queued_to_running_s"] = median(queued)
	v["service.running_to_done_s"] = median(running)
	v["service.artifact_get_s"] = median(fetch)
	v["service.http_roundtrip_s"] = roundtrip
	v["service.dedup_share"] = ratio(float64(dups), float64(len(whole)))
	v["service.store_dedup_share"] = ratio(float64(storeDups), float64(executed))
	// Parts and whole are summed over the window rather than taken from
	// per-part medians, which need not belong to the same job.
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	v["service.unattributed_share"] = unattributedShare(sum(whole), sum(submit), sum(queued), sum(running), sum(fetch))
}

// traceFile is what a traced run writes to bench/out/<workload>.trace.json.
type traceFile struct {
	Result  *result                `json:"result"`
	Ladder  []*rung                `json:"ladder"`
	Summary map[string]spanSummary `json:"span_summary"`
	// Spans holds at most maxSpansPerName spans of each name, in start
	// order; Summary counts all of them.
	Spans []span `json:"spans"`
}

const maxSpansPerName = 2000

func (r *runner) writeTrace(res *result, spans []span, rungs []*rung) error {
	tf := traceFile{Result: res, Ladder: rungs, Summary: summarize(spans)}
	kept := make(map[string]int)
	for _, s := range spans {
		if kept[s.Name] < maxSpansPerName {
			kept[s.Name]++
			tf.Spans = append(tf.Spans, s)
		}
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, r.w.name+".trace.json"), data, 0o644)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// residentMiB reads the process's current resident set.  It runs after
// every operation, so it reads the one-line statm (second field:
// resident pages) rather than the whole status file.
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
