package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/frame"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// testSpec is a small, fast job; vary seed to mint distinct job IDs
// over an identical workload (counter-walk ignores the seed).
func testSpec(tenant string, seed uint64) JobSpec {
	return JobSpec{Tenant: tenant, Protocol: "counter-walk", N: 2, Seed: seed}
}

// serialDoc computes the reference verdict document for a spec the way
// the acceptance drill defines it: a direct serial valency run of the
// same logical job, rendered through the same document projection.
func serialDoc(t testing.TB, spec JobSpec) []byte {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	proto, err := zoo.Resolve(spec.ProtoSpec())
	if err != nil {
		t.Fatal(err)
	}
	opts := valency.Options{MaxConfigs: spec.Budget, NoSymmetry: spec.NoSymmetry, Crash: spec.Crash}
	var rep *valency.Report
	if spec.AllInputs {
		rep = valency.CheckAllInputs(proto, spec.N, opts)
	} else {
		rep = valency.Check(proto, spec.Inputs, opts)
	}
	doc, err := VerdictDocument(rep, &spec)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func waitDone(t testing.TB, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, ok := s.Job(id)
		if ok && st.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 60s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobSpecValidation(t *testing.T) {
	ok := testSpec("alice", 0)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(ok.Inputs) != 2 || ok.Engine != EngineLocal {
		t.Fatalf("normalize did not fill defaults: %+v", ok)
	}

	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"missing tenant", func(s *JobSpec) { s.Tenant = "  " }, "tenant is required"},
		{"tenant with slash", func(s *JobSpec) { s.Tenant = "a/b" }, "must not contain"},
		{"missing protocol", func(s *JobSpec) { s.Protocol = "" }, "protocol is required"},
		{"unknown protocol", func(s *JobSpec) { s.Protocol = "nope" }, "unknown protocol"},
		{"n too large", func(s *JobSpec) { s.N = 17 }, "out of range"},
		{"n huge", func(s *JobSpec) { s.N = 1 << 40 }, "out of range"},
		{"n negative", func(s *JobSpec) { s.N = -1 }, "out of range"},
		{"scan-machine without r", func(s *JobSpec) { s.Protocol = "scan-machine" }, "out of range"},
		{"flood-swap with negative r", func(s *JobSpec) { s.Protocol, s.R = "flood-swap", -1 }, "out of range"},
		{"flood-registers without r", func(s *JobSpec) { s.Protocol = "flood-registers" }, "out of range"},
		{"flood-mixed with huge r", func(s *JobSpec) { s.Protocol, s.R = "flood-mixed", 1<<40 }, "out of range"},
		{"inputs vs allInputs", func(s *JobSpec) { s.AllInputs = true; s.Inputs = []int64{0, 1} }, "mutually exclusive"},
		{"inputs length", func(s *JobSpec) { s.Inputs = []int64{0} }, "1 inputs for n=2"},
		{"bad engine", func(s *JobSpec) { s.Engine = "quantum" }, "engine"},
		{"negative budget", func(s *JobSpec) { s.Budget = -1 }, "budget"},
		{"crash out of range", func(s *JobSpec) { s.Crash = []int{5} }, "out of range"},
		{"too many crash", func(s *JobSpec) { s.Crash = []int{0, 1, 0} }, "crash"},
	}
	for _, tc := range cases {
		spec := testSpec("alice", 0)
		tc.mut(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestJobIDStability: the job hash depends on what runs and who owns
// it, and nothing else.
func TestJobIDStability(t *testing.T) {
	a, b := testSpec("alice", 0), testSpec("alice", 0)
	a.normalize()
	b.normalize()
	if a.ID() != b.ID() {
		t.Fatal("identical specs hash differently")
	}
	c := testSpec("bob", 0)
	c.normalize()
	if c.ID() == a.ID() {
		t.Fatal("tenant not covered by the job hash")
	}
	d := testSpec("alice", 1)
	d.normalize()
	if d.ID() == a.ID() {
		t.Fatal("seed not covered by the job hash")
	}
}

// TestHTTPMalformedRequests is the rejection table for every endpoint.
func TestHTTPMalformedRequests(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hc := Inproc(Handler(s))
	post := func(body string) *http.Response {
		resp, err := hc.Post("http://checkd/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := hc.Get("http://checkd" + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(name string, resp *http.Response, want int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, want)
		}
		if want >= 400 {
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("%s: error body not {\"error\":...}: %v", name, err)
			}
		}
	}

	check("healthz", get("/v1/healthz"), http.StatusOK)
	check("bad JSON", post("{not json"), http.StatusBadRequest)
	check("unknown field", post(`{"tenant":"a","protocol":"cas","bogusKnob":1}`), http.StatusBadRequest)
	check("missing tenant", post(`{"protocol":"cas"}`), http.StatusBadRequest)
	check("unknown protocol", post(`{"tenant":"a","protocol":"nope"}`), http.StatusBadRequest)
	check("wrong inputs arity", post(`{"tenant":"a","protocol":"cas","n":2,"inputs":[1]}`), http.StatusBadRequest)
	check("bad engine", post(`{"tenant":"a","protocol":"cas","engine":"quantum"}`), http.StatusBadRequest)
	check("job body not an object", post(`[1,2,3]`), http.StatusBadRequest)
	// Out-of-range protocol coordinates are refused before anything is
	// sized by them: each of these used to panic or exhaust memory.
	check("n huge", post(`{"tenant":"a","protocol":"counter-walk","n":1099511627776}`), http.StatusBadRequest)
	check("n negative", post(`{"tenant":"a","protocol":"counter-walk","n":-1}`), http.StatusBadRequest)
	check("scan-machine without r", post(`{"tenant":"a","protocol":"scan-machine"}`), http.StatusBadRequest)
	check("flood-swap with negative r", post(`{"tenant":"a","protocol":"flood-swap","r":-1}`), http.StatusBadRequest)
	check("flood-registers without r", post(`{"tenant":"a","protocol":"flood-registers"}`), http.StatusBadRequest)
	check("flood-mixed with huge r", post(`{"tenant":"a","protocol":"flood-mixed","r":1099511627776}`), http.StatusBadRequest)
	// A machine coordinate names a hierarchy class by its size; one too
	// small or too large to enumerate is refused before anything is
	// built, and the daemon stays healthy.
	start := time.Now()
	check("machine with -1 free states", post(`{"tenant":"a","protocol":"machine:register:-1:1"}`), http.StatusBadRequest)
	check("machine with 1000 free states", post(`{"tenant":"a","protocol":"machine:register:1000:1"}`), http.StatusBadRequest)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("malformed machine names took %v to refuse", took)
	}
	check("healthz after malformed machines", get("/v1/healthz"), http.StatusOK)
	check("unknown job", get("/v1/jobs/ffffffffffffffff"), http.StatusNotFound)
	check("unknown job events", get("/v1/jobs/ffffffffffffffff/events"), http.StatusNotFound)
	check("invalid artifact hash", get("/v1/artifacts/not-a-hash"), http.StatusBadRequest)
	check("uppercase artifact hash", get("/v1/artifacts/0123456789ABCDEF"), http.StatusBadRequest)
	check("unknown artifact", get("/v1/artifacts/0123456789abcdef"), http.StatusNotFound)

	req, _ := http.NewRequest(http.MethodDelete, "http://checkd/v1/jobs", nil)
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/jobs: status = %d, want 405", resp.StatusCode)
	}
}

// TestTenantFairness: with one slot and a backlog of 3 Alice jobs
// against 2 Bob jobs, completion order must interleave tenants —
// Alice's backlog cannot starve Bob.
func TestTenantFairness(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), MaxActive: 1, Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids []string
	for i, tenant := range []string{"alice", "alice", "alice", "bob", "bob"} {
		st, dup, err := s.Submit(testSpec(tenant, uint64(i+1)))
		if err != nil || dup {
			t.Fatalf("submit %d: dup=%v err=%v", i, dup, err)
		}
		ids = append(ids, st.ID)
	}
	s.Resume()

	tenantBySeq := make(map[int64]string)
	for _, id := range ids {
		st := waitDone(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
		tenantBySeq[st.Seq] = st.Spec.Tenant
	}
	want := []string{"alice", "bob", "alice", "bob", "alice"}
	for i, tenant := range want {
		if got := tenantBySeq[int64(i+1)]; got != tenant {
			t.Fatalf("completion order %v, want %v", tenantBySeq, want)
		}
	}
}

// TestDuplicateSubmission: resubmitting a spec dedups onto the
// existing job; the same logical job from another tenant is a distinct
// job whose verdict document still dedups in the artifact store.
func TestDuplicateSubmission(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, dup, err := s.Submit(testSpec("alice", 0))
	if err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	again, dup, err := s.Submit(testSpec("alice", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !dup || again.ID != first.ID {
		t.Fatalf("resubmission: dup=%v id=%s, want dedup onto %s", dup, again.ID, first.ID)
	}

	other, dup, err := s.Submit(testSpec("bob", 0))
	if err != nil || dup {
		t.Fatalf("cross-tenant submit: dup=%v err=%v", dup, err)
	}
	if other.ID == first.ID {
		t.Fatal("cross-tenant job shares an ID")
	}

	a := waitDone(t, s, first.ID)
	b := waitDone(t, s, other.ID)
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("states: %s / %s", a.State, b.State)
	}
	if a.Artifact != b.Artifact {
		t.Fatalf("same logical job stored twice: %s vs %s", a.Artifact, b.Artifact)
	}
	if got := s.store.Stats(); got != (StoreStats{Puts: 1, Dedups: 1}) {
		t.Fatalf("store stats = %+v, want 1 put, 1 dedup", got)
	}
}

// TestEventsStream: the events endpoint streams every transition as a
// JSON line and ends at the terminal state.
func TestEventsStream(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Base: "http://checkd", HTTP: Inproc(Handler(s))}

	sr, err := c.Submit(testSpec("alice", 0))
	if err != nil {
		t.Fatal(err)
	}
	s.Resume()

	var states []string
	last, err := c.Events(sr.Job.ID, func(st JobStatus) { states = append(states, st.State) })
	if err != nil {
		t.Fatal(err)
	}
	if last == nil || last.State != StateDone {
		t.Fatalf("stream ended at %+v, want done", last)
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("observed states %v, want a trail ending in done", states)
	}
	doc, err := c.Artifact(last.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialDoc(t, testSpec("alice", 0)); !bytes.Equal(doc, want) {
		t.Fatalf("artifact differs from serial document:\n%s\nvs\n%s", doc, want)
	}
}

// TestGracefulRestartResume: Close interrupts a running job at an
// engine checkpoint and re-queues it; a new server generation over the
// same data directory picks it up and finishes it, along with jobs
// that never got to run.
func TestGracefulRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second resume drill; run without -short")
	}
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, MaxActive: 1, Workers: 1, SpillCheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	big := JobSpec{Tenant: "alice", Protocol: "counter-walk", N: 3}
	st1, _, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := s.Submit(testSpec("bob", 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(testSpec("carol", 0)); err == nil {
		t.Fatal("submit after Close succeeded")
	}

	r, err := New(Config{DataDir: dir, MaxActive: 1, Workers: 1, SpillCheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got1 := waitDone(t, r, st1.ID)
	got2 := waitDone(t, r, st2.ID)
	if got1.State != StateDone || got2.State != StateDone {
		t.Fatalf("states after restart: %s (%s) / %s (%s)", got1.State, got1.Error, got2.State, got2.Error)
	}
	if got1.Runs < 2 || got1.Resumes < 1 {
		t.Fatalf("big job was not resumed: runs=%d resumes=%d", got1.Runs, got1.Resumes)
	}
	doc, err := r.Artifact(got1.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialDoc(t, big); !bytes.Equal(doc, want) {
		t.Fatalf("resumed verdict differs from serial document:\n%s\nvs\n%s", doc, want)
	}
}

// TestJobRecordTrailingBytesSkipped: a job record is exactly one frame,
// like every durable record.  An intact record plus one extra byte is
// skipped at reload with its log line, like any corrupt record, and an
// intact sibling job still loads.
func TestJobRecordTrailingBytesSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, MaxActive: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(0); seed < 2; seed++ {
		st, _, err := s.Submit(testSpec("alice", seed))
		if err != nil {
			t.Fatal(err)
		}
		if end := waitDone(t, s, st.ID); end.State != StateDone {
			t.Fatalf("job %s ended %s: %s", st.ID, end.State, end.Error)
		}
		ids = append(ids, st.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(dir, "jobs", ids[0], "job.rec")
	raw, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rec, append(raw, 0), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	r, err := New(Config{DataDir: dir, MaxActive: 1, Workers: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st, ok := r.Job(ids[0]); ok {
		t.Fatalf("record with a trailing byte loaded: %+v", st)
	}
	if st, ok := r.Job(ids[1]); !ok || st.State != StateDone {
		t.Fatalf("intact sibling record: %+v (loaded %v)", st, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "skipping job "+ids[0]) && strings.Contains(l, "trailing bytes") {
			return
		}
	}
	t.Fatalf("no skip line naming the trailing bytes of job %s in the log: %q", ids[0], logs)
}

// TestHardKillResume: the disk dies under a running daemon (every
// operation fails, the fault-injected analogue of kill -9); a new
// generation over the surviving on-disk state re-queues the job and
// finishes it with the serial verdict.
func TestHardKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill drill; run without -short")
	}
	dir := t.TempDir()
	chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	s, err := New(Config{DataDir: dir, FS: chaos, MaxActive: 1, Workers: 1, SpillCheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	big := JobSpec{Tenant: "alice", Protocol: "counter-walk", N: 3}
	st, _, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	chaos.KillFromNow()
	end := waitDone(t, s, st.ID)
	if end.State == StateDone {
		// The kill can land after the exploration finished but the job
		// still needed store writes; done here would mean those writes
		// dodged the dead disk, which must be impossible.
		t.Fatalf("job completed on a dead disk: %+v", end)
	}
	s.Close()

	r, err := New(Config{DataDir: dir, MaxActive: 1, Workers: 1, SpillCheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := waitDone(t, r, st.ID)
	if got.State != StateDone {
		t.Fatalf("after restart: state %s (%s)", got.State, got.Error)
	}
	doc, err := r.Artifact(got.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialDoc(t, big); !bytes.Equal(doc, want) {
		t.Fatalf("verdict after hard kill differs from serial document:\n%s\nvs\n%s", doc, want)
	}
}

// TestEndToEndLifecycle is the acceptance drill: multiple jobs from two
// tenants over both engines against a live server, a kill mid-run, a
// restart, and every verdict document byte-identical to a direct serial
// run, served from the content-addressed store over the API.
func TestEndToEndLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second acceptance drill; run without -short")
	}
	dir := t.TempDir()
	cfg := Config{DataDir: dir, MaxActive: 2, Workers: 2, DistWorkers: 2,
		SpillCheckpointEvery: 64, DistCheckpointEvery: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: "http://checkd", HTTP: Inproc(Handler(s))}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != HealthOK {
		t.Fatalf("fresh daemon health %q, want %q", h.Status, HealthOK)
	}

	specs := []JobSpec{
		{Tenant: "alice", Protocol: "counter-walk", N: 3},
		{Tenant: "alice", Protocol: "cas", N: 2},
		{Tenant: "bob", Protocol: "counter-walk", N: 3, Seed: 7},
		{Tenant: "bob", Protocol: "counter-walk", N: 2, Engine: EngineDist},
	}
	var ids []string
	for i, spec := range specs {
		sr, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if sr.Duplicate {
			t.Fatalf("submit %d reported duplicate", i)
		}
		ids = append(ids, sr.Job.ID)
	}

	// Kill the daemon mid-run: running jobs drain to a checkpoint,
	// queued ones stay queued, all records persist.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c = &Client{Base: "http://checkd", HTTP: Inproc(Handler(r))}

	listed, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(specs) {
		t.Fatalf("restarted daemon lists %d jobs, want %d", len(listed), len(specs))
	}

	for i, id := range ids {
		st, err := c.Wait(id, 60*time.Second)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d: state %s (%s)", i, st.State, st.Error)
		}
		doc, err := c.Artifact(st.Artifact)
		if err != nil {
			t.Fatalf("job %d: artifact: %v", i, err)
		}
		if want := serialDoc(t, specs[i]); !bytes.Equal(doc, want) {
			t.Fatalf("job %d (%s): stored document differs from direct serial run:\n%s\nvs\n%s",
				i, specs[i].Protocol, doc, want)
		}
		var parsed valency.JSONReport
		if err := json.Unmarshal(doc, &parsed); err != nil {
			t.Fatalf("job %d: document is not valid JSON: %v", i, err)
		}
		if parsed.SchemaVersion != valency.ReportSchemaVersion {
			t.Fatalf("job %d: schemaVersion = %d, want %d", i, parsed.SchemaVersion, valency.ReportSchemaVersion)
		}
	}

	// The two identical counter-walk(3) workloads (alice's and bob's
	// seed-7 variant differ only by seed, which repro records) stored
	// distinct documents; alice's cas and the dist-engine job each have
	// their own.  Every stored byte is reachable over the API by hash.
	seen := make(map[string]bool)
	for _, id := range ids {
		st, _ := r.Job(id)
		seen[st.Artifact] = true
	}
	if len(seen) != len(ids) {
		t.Fatalf("expected %d distinct artifacts, got %d", len(ids), len(seen))
	}
}

// TestSubmitWhileRunningDedups: a duplicate arriving while the first
// copy is mid-flight joins it instead of double-running.
func TestSubmitWhileRunningDedups(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), MaxActive: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := JobSpec{Tenant: "alice", Protocol: "counter-walk", N: 3}
	first, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, dup, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !dup || again.ID != first.ID {
		t.Fatalf("mid-flight resubmission: dup=%v id=%s, want dedup onto %s", dup, again.ID, first.ID)
	}
	if st := waitDone(t, s, first.ID); st.Runs != 1 {
		t.Fatalf("deduped job ran %d times, want 1", st.Runs)
	}
}

func TestVerdictDocumentEngineAgnostic(t *testing.T) {
	local := JobSpec{Tenant: "alice", Protocol: "counter-walk", N: 2}
	distSpec := JobSpec{Tenant: "bob", Protocol: "counter-walk", N: 2, Engine: EngineDist}
	a, b := serialDoc(t, local), serialDoc(t, distSpec)
	if !bytes.Equal(a, b) {
		t.Fatalf("document depends on tenant/engine:\n%s\nvs\n%s", a, b)
	}
	if ArtifactHash(a) != ArtifactHash(b) {
		t.Fatal("artifact addresses differ for the same logical job")
	}
}
