package service

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/frame"
)

// slowSpec is a job that runs multiple seconds under Workers:1 —
// enough runway for deadlines and cancellations to land mid-run.
func slowSpec(tenant string, seed uint64) JobSpec {
	return JobSpec{Tenant: tenant, Protocol: "counter-walk", N: 3, Seed: seed}
}

// waitState polls until the job reports the wanted state.
func waitState(t testing.TB, s *Server, id, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, _ := s.Job(id)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v, want %q", id, st.State, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlineTimesOutRunningJob: a running job whose DeadlineSeconds
// expires is interrupted at the engine seam, lands in the timeout
// terminal state, and keeps its spill checkpoint — resubmitting the
// same spec resumes it to the uninterrupted serial verdict.
func TestDeadlineTimesOutRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second deadline drill; run without -short")
	}
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, MaxActive: 1, Workers: 1, SpillCheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := slowSpec("alice", 1)
	spec.DeadlineSeconds = 1
	st, dup, err := s.Submit(spec)
	if err != nil || dup {
		t.Fatalf("submit: dup=%t err=%v", dup, err)
	}
	if st.DeadlineAtMS == 0 {
		t.Fatal("submit did not stamp DeadlineAtMS")
	}
	got := waitDone(t, s, st.ID)
	if got.State != StateTimeout {
		t.Fatalf("state %q (error %q), want %q", got.State, got.Error, StateTimeout)
	}
	if got.Seq == 0 {
		t.Fatal("terminal job has no completion sequence number")
	}

	// The checkpoint survived the timeout: a resubmission (no deadline
	// this time) hashes to the same job, resumes, and finishes with the
	// verdict a serial run produces.
	respec := slowSpec("alice", 1)
	if respec.ID() != spec.ID() {
		t.Fatal("deadline leaked into the job hash")
	}
	st2, dup, err := s.Submit(respec)
	if err != nil || dup {
		t.Fatalf("resubmit: dup=%t err=%v", dup, err)
	}
	// Submit dispatches eagerly, so the returned status may already say
	// running; what matters is that the old deadline is gone.
	if st2.DeadlineAtMS != 0 || st2.terminal() {
		t.Fatalf("resubmit did not reset lifecycle: %+v", st2)
	}
	got = waitDone(t, s, st2.ID)
	if got.State != StateDone {
		t.Fatalf("after resubmit: state %q (%s)", got.State, got.Error)
	}
	doc, err := s.Artifact(got.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialDoc(t, slowSpec("alice", 1)); !bytes.Equal(doc, want) {
		t.Fatalf("resumed-after-timeout verdict differs from serial:\n%s\nvs\n%s", doc, want)
	}
}

// TestDeadlineTimesOutQueuedJob: a job that never leaves the queue
// before its deadline times out without ever running.
func TestDeadlineTimesOutQueuedJob(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec("alice", 1)
	spec.DeadlineSeconds = 1
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, st.ID, StateTimeout, 10*time.Second)
	if got.Runs != 0 {
		t.Fatalf("queued job ran %d times before timing out", got.Runs)
	}
	if q, _ := s.Queued(); q != 0 {
		t.Fatalf("timed-out job still queued (%d in queue)", q)
	}
}

// TestCancelQueuedJob: cancelling a queued job is immediate; cancelling
// it again reports the terminal conflict; cancelling an unknown job
// reports not-found.  The HTTP mappings (200/409/404) ride along.
func TestCancelQueuedJob(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, _, err := s.Submit(testSpec("alice", 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Cancel(st.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancel: state=%q err=%v", got.State, err)
	}
	if !got.CancelRequested || got.Seq == 0 {
		t.Fatalf("cancelled job record incomplete: %+v", got)
	}
	if q, _ := s.Queued(); q != 0 {
		t.Fatalf("cancelled job still queued (%d in queue)", q)
	}
	if _, err := s.Cancel(st.ID); !errors.Is(err, ErrAlreadyTerminal) {
		t.Fatalf("second cancel: err=%v, want ErrAlreadyTerminal", err)
	}
	if _, err := s.Cancel("no-such-job"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel unknown: err=%v, want ErrNoSuchJob", err)
	}

	c := &Client{Base: "http://checkd", HTTP: Inproc(Handler(s))}
	if _, err := c.Cancel(st.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("HTTP cancel of terminal job: err=%v, want 409", err)
	}
	if _, err := c.Cancel("0123456789abcdef"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("HTTP cancel of unknown job: err=%v, want 404", err)
	}
}

// TestCancelRunningJob: cancelling a running job drains the engine to
// its checkpoint (the Cancel response still says running, with
// CancelRequested set) and lands in cancelled; a resubmission resumes
// the checkpoint to the serial verdict.
func TestCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cancel drill; run without -short")
	}
	s, err := New(Config{DataDir: t.TempDir(), MaxActive: 1, Workers: 1, SpillCheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, _, err := s.Submit(slowSpec("alice", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 10*time.Second)
	time.Sleep(200 * time.Millisecond) // let the engine make some progress
	got, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning || !got.CancelRequested {
		t.Fatalf("mid-run cancel response: %+v", got)
	}
	got = waitDone(t, s, st.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %q (%s), want %q", got.State, got.Error, StateCancelled)
	}

	st2, dup, err := s.Submit(slowSpec("alice", 2))
	if err != nil || dup {
		t.Fatalf("resubmit after cancel: dup=%t err=%v", dup, err)
	}
	got = waitDone(t, s, st2.ID)
	if got.State != StateDone {
		t.Fatalf("after resubmit: state %q (%s)", got.State, got.Error)
	}
	doc, err := s.Artifact(got.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialDoc(t, slowSpec("alice", 2)); !bytes.Equal(doc, want) {
		t.Fatalf("resumed-after-cancel verdict differs from serial:\n%s\nvs\n%s", doc, want)
	}
}

// TestTransientFailureRetriesToSerialVerdict is the retry-heal
// acceptance drill: a disk-chaos kill mid-run fails the job with an
// injected I/O error, the scheduler classifies it transient and backs
// off, the disk heals, and the retry resumes the spill checkpoint to a
// verdict byte-identical to serial.  Health reads degraded while the
// retry is pending and ok again after it lands.
func TestTransientFailureRetriesToSerialVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second retry drill; run without -short")
	}
	chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{Seed: 7})
	s, err := New(Config{
		DataDir: t.TempDir(), FS: chaos, MaxActive: 1, Workers: 1,
		SpillCheckpointEvery: 64,
		RetryMax:             8, RetryBase: 100 * time.Millisecond, RetryCap: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := slowSpec("alice", 3)
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning, 10*time.Second)
	time.Sleep(300 * time.Millisecond) // past the first checkpoint
	chaos.KillFromNow()                // every disk op fails from here

	// The run dies on the injected fault and requeues with backoff.
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, _ := s.Job(st.ID)
		if got.Retries >= 1 && got.State == StateQueued {
			if got.FailureClass != failureTransient {
				t.Fatalf("failure class %q, want %q (last failure: %s)",
					got.FailureClass, failureTransient, got.LastFailure)
			}
			break
		}
		if got.terminal() {
			t.Fatalf("job went terminal (%s: %s) instead of retrying", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retry after 15s; job is %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := s.Health(); h.Status != HealthDegraded {
		t.Fatalf("health %q while a retry is pending, want %q", h.Status, HealthDegraded)
	}
	chaos.KillAtOp(math.MaxInt64) // heal: the kill ordinal is unreachable

	got := waitDone(t, s, st.ID)
	if got.State != StateDone {
		t.Fatalf("state %q (%s), want done after heal", got.State, got.Error)
	}
	if got.Retries < 1 {
		t.Fatalf("healed job reports %d retries, want >= 1", got.Retries)
	}
	doc, err := s.Artifact(got.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialDoc(t, spec); !bytes.Equal(doc, want) {
		t.Fatalf("retry-healed verdict differs from serial:\n%s\nvs\n%s", doc, want)
	}
	if h := s.Health(); h.Status != HealthOK {
		t.Fatalf("health %q after the retry landed, want %q", h.Status, HealthOK)
	}
}

// TestRetryBudgetExhausted: a disk that never heals burns the per-job
// attempt budget and the job fails honestly — transient class, the
// injected error preserved, exactly RetryMax re-executions.
func TestRetryBudgetExhausted(t *testing.T) {
	chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{Seed: 11})
	s, err := New(Config{
		DataDir: t.TempDir(), FS: chaos, MaxActive: 1, Workers: 1,
		RetryMax: 2, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The first run holds at the engine's door until the disk is dead, so
	// the kill lands mid-run however fast the job is.
	started, killed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.testHook = func(*JobSpec) {
		once.Do(func() { close(started) })
		<-killed
	}
	st, _, err := s.Submit(testSpec("alice", 4))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	chaos.KillFromNow()
	close(killed)
	got := waitDone(t, s, st.ID)
	if got.State != StateFailed {
		t.Fatalf("state %q, want failed once the budget is spent", got.State)
	}
	if got.Retries != 2 || got.FailureClass != failureTransient || got.Error == "" {
		t.Fatalf("exhausted job record: retries=%d class=%q error=%q",
			got.Retries, got.FailureClass, got.Error)
	}
}

// TestPanicIsolation: a panicking engine invocation fails its own job —
// permanent class, stack recorded — while the daemon and its other
// jobs keep working.
func TestPanicIsolation(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.testHook = func(spec *JobSpec) {
		if spec.Seed == 99 {
			panic("protocol exploded")
		}
	}
	bad, _, err := s.Submit(testSpec("alice", 99))
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := s.Submit(testSpec("alice", 1))
	if err != nil {
		t.Fatal(err)
	}

	got := waitDone(t, s, bad.ID)
	if got.State != StateFailed {
		t.Fatalf("panicking job state %q, want failed", got.State)
	}
	if got.FailureClass != failurePermanent {
		t.Fatalf("panic classified %q, want %q", got.FailureClass, failurePermanent)
	}
	if !strings.Contains(got.Error, "protocol exploded") || !strings.Contains(got.Stack, "runJob") {
		t.Fatalf("panic record lost the value or the stack: error=%q stack=%.80q", got.Error, got.Stack)
	}
	if got.Retries != 0 {
		t.Fatalf("panic was retried %d times; permanent failures must not retry", got.Retries)
	}

	if got := waitDone(t, s, good.ID); got.State != StateDone {
		t.Fatalf("sibling job state %q (%s); the panic took it down", got.State, got.Error)
	}
	h := s.Health()
	if h.Status != HealthOK {
		t.Fatalf("health %q after an isolated panic, want %q", h.Status, HealthOK)
	}
	th := h.Tenants["alice"]
	if th.Failures != 1 || !strings.Contains(th.LastError, "protocol exploded") {
		t.Fatalf("tenant health missed the failure: %+v", th)
	}
}

// TestHealthDraining: Close flips the health status to draining.
func TestHealthDraining(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Status != HealthOK {
		t.Fatalf("fresh daemon health %q", h.Status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Status != HealthDraining {
		t.Fatalf("closed daemon health %q, want %q", h.Status, HealthDraining)
	}
}

// TestClientWaitStreams: Wait rides the event stream to the terminal
// state (no poll cadence in the fast path) and still answers from a
// plain poll when the job is already terminal.
func TestClientWaitStreams(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Base: "http://checkd", HTTP: Inproc(Handler(s))}
	sr, err := c.Submit(testSpec("alice", 1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, err := c.Wait(sr.Job.ID, 30*time.Second)
	if err != nil || st.State != StateDone {
		t.Fatalf("wait: st=%+v err=%v", st, err)
	}
	// A second Wait on the now-terminal job returns immediately too.
	if st, err = c.Wait(sr.Job.ID, 30*time.Second); err != nil || st.State != StateDone {
		t.Fatalf("wait on terminal job: st=%+v err=%v", st, err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("waits took %v; the stream path is not streaming", elapsed)
	}
}

// TestHTTPLifecycleSurface: the new endpoints speak the documented
// shapes — DELETE cancels, healthz carries the structured report.
func TestHTTPLifecycleSurface(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Base: "http://checkd", HTTP: Inproc(Handler(s))}
	sr, err := c.Submit(testSpec("alice", 1))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != HealthOK || h.Queued != 1 || h.Tenants["alice"].Queued != 1 {
		t.Fatalf("health report %+v", h)
	}
	st, err := c.Cancel(sr.Job.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("client cancel: st=%+v err=%v", st, err)
	}
	// The mux rejects a method mismatch on the job resource.
	req, _ := http.NewRequest(http.MethodPut, "http://checkd/v1/jobs/"+sr.Job.ID, nil)
	resp, err := c.http().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT job = %d, want 405", resp.StatusCode)
	}
}
