package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"randsync/internal/service"
)

// opKind says how a service operation relates to earlier ones.
type opKind uint8

const (
	opFresh    opKind = iota // a spec the daemon has never seen
	opResubmit               // the same tenant's earlier spec again: answered from the job table
	opCross                  // the other tenant's spec: new job id, engine re-runs, artifact dedups
)

type svcOp struct {
	kind opKind
	spec service.JobSpec
}

// genMix generates each tenant's job sequence from the seed alone.
// Every fresh job draws its protocol from zoo and carries a minted
// JobSpec.Seed, which gives it a distinct job id over identical work
// (none of the zoo protocols reads the seed).  With mixed set, 15% of
// operations resubmit one of the tenant's own earlier fresh specs and
// 15% submit one of the other tenant's earlier fresh specs; the first
// operations, which have nothing earlier to repeat, stay fresh.
func genMix(seed uint64, perClient int, zoo []service.JobSpec, mixed bool) [][]svcOp {
	rng := rand.New(rand.NewSource(int64(seed)))
	mint := (seed%1_000_003)*1_000_000 + 1 // disjoint JobSpec.Seed ranges for nearby seeds
	seqs := make([][]svcOp, tenants)
	fresh := make([][]int, tenants) // per tenant: indices of its fresh ops so far
	for i := 0; i < perClient; i++ {
		for t := 0; t < tenants; t++ {
			op := svcOp{kind: opFresh}
			if mixed {
				switch p := rng.Intn(100); {
				case p < 15 && len(fresh[t]) > 0:
					op.kind = opResubmit
					op.spec = seqs[t][fresh[t][rng.Intn(len(fresh[t]))]].spec
				case p < 30 && len(fresh[1-t]) > 0:
					other := fresh[1-t]
					op.kind = opCross
					op.spec = seqs[1-t][other[rng.Intn(len(other))]].spec
				}
			}
			if op.kind == opFresh {
				op.spec = zoo[rng.Intn(len(zoo))]
				op.spec.Seed = mint
				mint++
				fresh[t] = append(fresh[t], i)
			}
			op.spec.Tenant = tenantName(t)
			seqs[t] = append(seqs[t], op)
		}
	}
	return seqs
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// svcEnv is a checkd daemon in this process — service.New with checkd's
// flag defaults, served by net/http on a loopback port — plus one
// client per tenant, each holding a single keep-alive connection.
type svcEnv struct {
	rc      *runCtx
	srv     *service.Server
	hs      *http.Server
	served  chan error
	clients []*service.Client
	seqs    [][]svcOp
}

func newSvcEnv(rc *runCtx, zoo []service.JobSpec, mixed bool) (env, error) {
	srv, err := service.New(service.Config{
		DataDir:              filepath.Join(rc.dir, "data"),
		FS:                   rc.fsys,
		MaxActive:            2,
		Workers:              engineWorkers,
		DistWorkers:          2,
		SpillCheckpointEvery: 4096,
		DistCheckpointEvery:  16,
		MaxQueuedPerTenant:   64,
		MaxQueue:             1024,
		RetryMax:             3,
		RetryBase:            100 * time.Millisecond,
		RetryCap:             30 * time.Second,
		RetrySeed:            1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &svcEnv{
		rc: rc, srv: srv,
		hs:     &http.Server{Handler: service.Handler(srv)},
		served: make(chan error, 1),
		seqs:   genMix(rc.seed, rc.perClient, zoo, mixed),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for t := 0; t < tenants; t++ {
		e.clients = append(e.clients, &service.Client{
			Base: "http://" + ln.Addr().String(),
			HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		})
	}
	return e, nil
}

// op times Submit → terminal event → Artifact fetched, stamping the
// three client calls (and the running event's arrival) on the way.
func (e *svcEnv) op(client, i int) opResult {
	rec := e.rc.rec
	c := e.clients[client]
	spec := e.seqs[client][i].spec
	id := spec.ID()
	jobSpan := rec.start("job", 0, id)
	rec.setScope(id, jobSpan)
	defer func() {
		rec.setScope(id, 0)
		rec.end(jobSpan)
	}()

	t0 := time.Now()
	res := opResult{jobID: id}
	sr, err := c.Submit(spec)
	t1 := time.Now()
	rec.add("service.submit", jobSpan, id, t0, t1)
	res.submit = t1.Sub(t0)
	if err != nil {
		res.latency, res.fail = time.Since(t0), "submit: "+err.Error()
		return res
	}
	res.duplicate = sr.Duplicate

	// The wait splits at the first event that says the job left the
	// queue: before it the job waited for the scheduler, after it the
	// engine (and the verdict's persistence) ran.
	tRun := t1
	seenRun := false
	st, err := c.Events(id, func(s service.JobStatus) {
		if !seenRun && s.State != service.StateQueued {
			tRun, seenRun = time.Now(), true
		}
	})
	t2 := time.Now()
	rec.add("service.wait_queued", jobSpan, id, t1, tRun)
	rec.add("service.wait_running", jobSpan, id, tRun, t2)
	res.queued, res.running = tRun.Sub(t1), t2.Sub(tRun)
	if err != nil || st == nil || st.State != service.StateDone {
		res.latency = time.Since(t0)
		switch {
		case err != nil:
			res.fail = "events: " + err.Error()
		case st == nil:
			res.fail = "event stream ended without a status"
		default:
			res.fail = "job ended " + st.State + ": " + st.Error
		}
		return res
	}

	doc, err := c.Artifact(st.Artifact)
	t3 := time.Now()
	rec.add("service.artifact_get", jobSpan, id, t2, t3)
	res.fetch = t3.Sub(t2)
	res.latency = t3.Sub(t0)
	if err != nil {
		res.fail = "artifact: " + err.Error()
		return res
	}
	res.configs, res.artifact = st.Configs, st.Artifact
	res.wrong = e.rc.golden.verifyDoc(&spec, doc)
	if want := e.rc.golden.Jobs[jobKey(&spec)]; res.wrong == "" && (st.Verdict != want.Verdict || st.Configs != want.Configs) {
		res.wrong = fmt.Sprintf("job status says %s/%d configs, want %s/%d", st.Verdict, st.Configs, want.Verdict, want.Configs)
	}
	return res
}

// close stops the HTTP server, drains the daemon and waits for the
// serving goroutine, so nothing the environment started outlives it.
func (e *svcEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if err != nil {
		e.hs.Close()
	}
	<-e.served
	for _, c := range e.clients {
		c.HTTP.CloseIdleConnections()
	}
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// svcJobOf attributes a path under the daemon's data directory to the
// job whose directory holds it ("" for the shared artifact store).
func svcJobOf(path string) string {
	_, rest, ok := strings.Cut(filepath.ToSlash(path), "/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// directJobOf attributes a spill path to the direct operation whose
// scratch directory holds it.
func directJobOf(path string) string {
	for _, el := range strings.Split(filepath.ToSlash(path), "/") {
		if strings.HasPrefix(el, "op-") {
			return el
		}
	}
	return ""
}
