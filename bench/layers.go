package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"randsync/internal/dist"
	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/service"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

// rung is one step of the layer ladder: the same reference job checked
// through one more layer than the rung before it.
type rung struct {
	Name    string    `json:"name"`
	Samples []float64 `json:"samples_s"`
	Median  float64   `json:"median_s"`
	Min     float64   `json:"min_s"`
	Max     float64   `json:"max_s"`
	// Base and Ratio compare this rung's median with the previous
	// measured rung's.
	Base  string  `json:"base,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`

	stats *valency.Stats
}

// finish fills the rung's summary from its samples.
func (r *rung) finish() *rung {
	s := sortedCopy(r.Samples)
	r.Median, r.Min, r.Max = median(s), s[0], s[len(s)-1]
	return r
}

// rungNames is the ladder, bottom to top.  Every rung checks the same
// job; each adds one thing to the rung below: shard-owned workers, the
// spill tier's bookkeeping, checkd's checkpoint cadence, a 64 KiB hot
// set, the HTTP service, the TCP cluster.
var rungNames = []string{"serial", "sharded", "spill_ram", "spill_ckpt", "spill_evict", "service", "dist"}

// ladder holds the measured rungs by name; a missing name was skipped.
type ladder map[string]*rung

func (l ladder) median(name string) float64 {
	if r := l[name]; r != nil {
		return r.Median
	}
	return 0
}

// ordered returns the measured rungs bottom to top with each one's
// ratio to the measured rung below it.
func (l ladder) ordered() []*rung {
	var out []*rung
	for _, name := range rungNames {
		r := l[name]
		if r == nil {
			continue
		}
		if len(out) > 0 {
			prev := out[len(out)-1]
			r.Base, r.Ratio = prev.Name, ratio(r.Median, prev.Median)
		}
		out = append(out, r)
	}
	return out
}

// runLadder measures every rung on ref, samples times each, verifying
// each verdict against the golden answer.  heavy keeps to the in-RAM
// rungs (the checkpointing and evicting rungs of a 463852-configuration
// job run for minutes).  wrong collects verification failures.
func runLadder(ref service.JobSpec, heavy bool, samples int, scratch string, seed uint64, g *golden) (l ladder, wrong []string, err error) {
	proto, err := dist.Resolve(ref.ProtoSpec())
	if err != nil {
		return nil, nil, err
	}
	l = make(ladder)
	measure := func(name string, check func(i int) (*valency.Report, error)) error {
		r := &rung{Name: name}
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			rep, err := check(i)
			r.Samples = append(r.Samples, time.Since(t0).Seconds())
			if err != nil {
				return fmt.Errorf("ladder rung %s: %w", name, err)
			}
			doc, err := rep.JSON(ref.Repro()).Encode()
			if err != nil {
				return err
			}
			if msg := g.verifyDoc(&ref, doc); msg != "" {
				wrong = append(wrong, "ladder rung "+name+": "+msg)
			}
			r.stats = rep.Stats
		}
		l[name] = r.finish()
		return nil
	}
	spill := func(name string, opts valency.Options) error {
		opts.SpillFS = newMemDisk()
		return measure(name, func(i int) (*valency.Report, error) {
			opts.SpillDir = filepath.Join(scratch, fmt.Sprintf("ladder-%s-%d", name, i))
			return valency.CheckSpill(proto, ref.Inputs, opts)
		})
	}

	if err := measure("serial", func(int) (*valency.Report, error) {
		return valency.Check(proto, ref.Inputs, valency.Options{}), nil
	}); err != nil {
		return nil, wrong, err
	}
	if err := measure("sharded", func(int) (*valency.Report, error) {
		return valency.Check(proto, ref.Inputs, valency.Options{Workers: engineWorkers}), nil
	}); err != nil {
		return nil, wrong, err
	}
	if err := spill("spill_ram", valency.Options{Workers: engineWorkers, SpillCheckpointEvery: -1}); err != nil {
		return nil, wrong, err
	}
	if heavy {
		return l, wrong, nil
	}
	// checkd's exact engine options (service.Server.execute).
	if err := spill("spill_ckpt", valency.Options{Workers: engineWorkers, SpillCheckpointEvery: 4096, SpillResume: true}); err != nil {
		return nil, wrong, err
	}
	if err := spill("spill_evict", valency.Options{Workers: engineWorkers, MemBudget: 64 << 10}); err != nil {
		return nil, wrong, err
	}
	if err := measure("dist", func(int) (*valency.Report, error) { return loopback(&ref) }); err != nil {
		return nil, wrong, err
	}

	// The service rung: one caller alone against a fresh daemon, so the
	// figure is the API's cost over spill_ckpt without queueing.
	rc := &runCtx{seed: seed, golden: g, dir: filepath.Join(scratch, "ladder-service"), perClient: samples, fsys: newMemDisk()}
	e, err := newSvcEnv(rc, []service.JobSpec{ref}, false)
	if err != nil {
		return nil, wrong, err
	}
	r := &rung{Name: "service"}
	for i := 0; i < samples; i++ {
		res := e.op(0, i)
		if res.fail != "" {
			e.close()
			return nil, wrong, fmt.Errorf("ladder rung service: %s", res.fail)
		}
		if res.wrong != "" {
			wrong = append(wrong, "ladder rung service: "+res.wrong)
		}
		r.Samples = append(r.Samples, res.latency.Seconds())
	}
	l["service"] = r.finish()
	return l, wrong, e.close()
}

// timeLoop runs f reps times and returns the median per-call seconds.
func timeLoop(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

// simMicro times the sim layer's three hot calls — key encoding,
// step+undo, clone — over n configurations sampled by a seeded random
// walk of proto from inputs, and reports nanoseconds per call (median
// of 9 passes) and the mean key length.
func simMicro(proto sim.Protocol, inputs []int64, seed uint64, n int) (appendKeyNS, stepNS, cloneNS, keyBytes float64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	type sample struct {
		c       *sim.Config
		pid     int
		outcome int64
	}
	// choose picks a scheduler choice for c: an enabled process and, for
	// a coin flip, one of its outcomes.
	choose := func(c *sim.Config) (pid int, outcome int64, ok bool) {
		var enabled []int
		for p := 0; p < c.N(); p++ {
			if c.Pending(p).Kind != sim.ActHalt {
				enabled = append(enabled, p)
			}
		}
		if len(enabled) == 0 {
			return 0, 0, false
		}
		pid = enabled[rng.Intn(len(enabled))]
		if a := c.Pending(pid); a.Kind == sim.ActFlip {
			outcome = rng.Int63n(a.Sides)
		}
		return pid, outcome, true
	}
	samples := make([]sample, 0, n)
	c := sim.NewConfig(proto, inputs)
	for len(samples) < n {
		pid, outcome, ok := choose(c)
		if !ok {
			c = sim.NewConfig(proto, inputs)
			continue
		}
		samples = append(samples, sample{c.Clone(), pid, outcome})
		if _, err := c.Step(pid, outcome); err != nil {
			c = sim.NewConfig(proto, inputs)
		}
	}

	keyer := sim.Keyer{Symmetry: true}
	buf := make([]byte, 0, 256)
	var total int
	appendKey := timeLoop(9, func() {
		total = 0
		for i := range samples {
			buf = keyer.AppendKey(samples[i].c, buf[:0])
			total += len(buf)
		}
	})
	step := timeLoop(9, func() {
		for i := range samples {
			var u sim.StepUndo
			if _, err := samples[i].c.StepInto(samples[i].pid, samples[i].outcome, &u); err == nil {
				samples[i].c.UndoStep(&u)
			}
		}
	})
	var dst sim.Config
	clone := timeLoop(9, func() {
		for i := range samples {
			samples[i].c.CloneInto(&dst)
		}
	})
	per := func(s float64) float64 { return s * 1e9 / float64(n) }
	return per(appendKey), per(step), per(clone), float64(total) / float64(n)
}

// exploreMicro drives explore.RunSharded over a synthetic seeded graph
// — nodes are integers, each with four pseudo-random successors — so
// the visited set and cross-shard hand-off are measured with no
// simulator underneath.  It returns emissions per second and the share
// of emissions the visited set deduplicated.
func exploreMicro(seed uint64, nodes int) (emitsPerSec, dedupRatio float64) {
	const degree = 4
	key := func(buf []byte, u uint64) []byte { return binary.BigEndian.AppendUint64(buf[:0], u) }
	next := func(u uint64, k int) uint64 {
		x := (u+1)*0x9E3779B97F4A7C15 ^ (seed+uint64(k))*0xBF58476D1CE4E5B9
		x ^= x >> 31
		return x % uint64(nodes)
	}
	root := key(nil, 0)
	bufs := make([][]byte, engineWorkers)
	res := explore.RunSharded(engineWorkers, explore.ShardedOptions[uint64]{},
		[]explore.ShardSeed[uint64]{{FP: sim.FingerprintBytes(root), Key: root, Val: 0}},
		func(ctx *explore.ShardCtx[uint64], id int64, u uint64) {
			w := ctx.Worker()
			for k := 0; k < degree; k++ {
				v := next(u, k)
				bufs[w] = key(bufs[w], v)
				ctx.Emit(sim.FingerprintBytes(bufs[w]), bufs[w], id, func() uint64 { return v })
			}
		})
	emits := float64(res.Stats.Processed * degree)
	return ratio(emits, res.Stats.Elapsed.Seconds()), ratio(float64(res.Stats.DedupHits), emits)
}

// frameMicro times frame.WriteFileAtomic of one 1 KiB record (create,
// write, fsync, rename, directory fsync): the primitive under every job
// record and artifact.  Median of reps writes.
func frameMicro(dir string, reps int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	payload := make([]byte, 1024)
	var werr error
	i := 0
	s := timeLoop(reps, func() {
		path := filepath.Join(dir, fmt.Sprintf("rec-%d", i))
		i++
		if err := frame.WriteFileAtomic(frame.OS{}, path, func(w io.Writer) error { return frame.Write(w, 1, payload) }); err != nil {
			werr = err
		}
	})
	return s, werr
}

// storeMicro times the artifact store called directly: Put of reps
// distinct documents, then Get of each (medians), and VerdictDocument
// on rep.
func storeMicro(dir string, reps int, rep *valency.Report, spec *service.JobSpec) (put, get, doc float64, err error) {
	st, err := service.NewStore(dir, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	base, err := service.VerdictDocument(rep, spec)
	if err != nil {
		return 0, 0, 0, err
	}
	hashes := make([]string, 0, reps)
	i := 0
	put = timeLoop(reps, func() {
		h, _, perr := st.Put(append(base[:len(base):len(base)], fmt.Sprintf("\n%d", i)...))
		i++
		if perr != nil {
			err = perr
		}
		hashes = append(hashes, h)
	})
	i = 0
	get = timeLoop(reps, func() {
		if _, gerr := st.Get(hashes[i]); gerr != nil {
			err = gerr
		}
		i++
	})
	doc = timeLoop(reps, func() {
		if _, derr := service.VerdictDocument(rep, spec); derr != nil {
			err = derr
		}
	})
	return put, get, doc, err
}
