package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"randsync/internal/dist"
	"randsync/internal/hierarchy"
	"randsync/internal/object"
	"randsync/internal/service"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

// directEnv serves operations that call the checker in-process, the way
// the modelcheck, separation and distcheck commands do: one fixed job,
// checked again on every operation.
type directEnv struct {
	rc    *runCtx
	spec  service.JobSpec
	proto sim.Protocol
	check func(e *directEnv, i int) (*valency.Report, error)
}

func newDirectEnv(rc *runCtx, spec service.JobSpec, check func(*directEnv, int) (*valency.Report, error)) (env, error) {
	proto, err := dist.Resolve(spec.ProtoSpec())
	if err != nil {
		return nil, err
	}
	return &directEnv{rc: rc, spec: spec, proto: proto, check: check}, nil
}

// op times call → Report → encoded verdict document, then verifies the
// document against the golden answer outside the timed interval.
func (e *directEnv) op(client, i int) opResult {
	rec := e.rc.rec
	job := jobDirName(i)
	jobSpan := rec.start("job", 0, job)
	t0 := time.Now()

	checkSpan := rec.start("valency.check", jobSpan, job)
	rec.setScope(job, checkSpan)
	rep, err := e.check(e, i)
	rec.setScope(job, 0)
	rec.end(checkSpan)

	var doc []byte
	if err == nil {
		jsonSpan := rec.start("valency.report_json", jobSpan, job)
		doc, err = rep.JSON(e.spec.Repro()).Encode()
		rec.end(jsonSpan)
	}
	res := opResult{latency: time.Since(t0)}
	rec.end(jobSpan)

	settleHeap()
	if err != nil {
		res.fail = err.Error()
		return res
	}
	res.configs = rep.Configs
	res.stats = rep.Stats
	res.wrong = e.rc.golden.verifyDoc(&e.spec, doc)
	return res
}

func (e *directEnv) close() error { return nil }

// jobDirName is the directory of a direct operation on the modelled disk; the
// counting filesystem attributes spans to jobs by this path element.
func jobDirName(i int) string { return fmt.Sprintf("op-%d", i) }

func (e *directEnv) jobDir(i int) string { return filepath.Join(e.rc.dir, jobDirName(i)) }

// loopback checks spec on the in-process TCP cluster with the shape
// checkd gives engine=dist jobs (2 workers, 16 shards), each worker
// expanding its batches serially, and no checkpoint file.
func loopback(spec *service.JobSpec) (*valency.Report, error) {
	job := dist.Job{Spec: spec.ProtoSpec(), Inputs: spec.Inputs}
	return dist.Loopback(engineWorkers, job, dist.Options{Shards: 16, Valency: valency.Options{Workers: 1}})
}

// settleHeap collects the finished job's garbage before the next job
// starts, so peak memory is what one job needs rather than an accident
// of where the collector stood in the garbage of the jobs before it.
// It runs outside the job's clock; a direct caller's process would have
// exited by now.
func settleHeap() { runtime.GC() }

// sweepEnv serves the tiny-sweep operation: the two exhaustive
// protocol-space searches whose answers theory fixes.
type sweepEnv struct{ rc *runCtx }

func newSweepEnv(rc *runCtx) (env, error) { return &sweepEnv{rc: rc}, nil }

func (e *sweepEnv) op(client, i int) opResult {
	rec := e.rc.rec
	job := jobDirName(i)
	jobSpan := rec.start("job", 0, job)
	t0 := time.Now()
	var res opResult
	for _, s := range []struct {
		key string
		typ object.Type
	}{
		{"sticky-bit/2", object.StickyBitType{}},
		{"register/2", object.RegisterType{}},
	} {
		sp := rec.start("hierarchy.search", jobSpan, job)
		r, err := hierarchy.SearchWith(s.typ, 2, hierarchy.Options{Workers: 1})
		rec.end(sp)
		if err != nil {
			res.fail = err.Error()
			break
		}
		res.machines += r.Enumerated
		res.solvers += r.Solvers
		if res.wrong == "" {
			res.wrong = e.rc.golden.verifySweep(s.key, r)
		}
	}
	res.latency = time.Since(t0)
	rec.end(jobSpan)
	settleHeap()
	return res
}

func (e *sweepEnv) close() error { return nil }
