// Package service is the checker-as-a-service layer: a persistent,
// multi-tenant job coordinator that accepts verification jobs over an
// HTTP/JSON API (http.go), runs them on the in-process disk-tiered
// engine (valency.CheckSpill) with per-tenant round-robin fairness, and
// persists every verdict into a content-addressed artifact store
// (store.go) built on the frame codec.
//
// Every piece of durable state — job records, spill checkpoints,
// artifacts — lives under one data directory and goes through the
// frame.FS seam, so the whole daemon can be crash-tested with
// fault.DiskChaos.  A restarted daemon re-reads the job records,
// re-queues anything that was queued or running, and the engine resumes
// from the job's checkpoint (or, over one it cannot resume, starts the
// job over from its spec); graceful shutdown drains running jobs to a
// checkpoint first, so restart loses no completed exploration.
//
// The lifecycle layer on top (retry.go, this file) makes the daemon fit
// for unattended traffic: jobs carry deadlines and can be cancelled
// (both drive the engine's Interrupt seam, so the checkpoint survives),
// transient engine failures requeue with capped seeded backoff under a
// per-job attempt budget, tenant quotas bound queue growth, and every
// engine invocation runs under recover so a panicking protocol fails
// one job instead of the daemon.
//
// Durability is per job (commit.go).  Server.mu and Store.mu are
// memory-only locks — neither is ever held across a frame.FS call — so
// one tenant's fsyncs never stall another tenant's submit, status read
// or event stream, and two tenants' commits overlap on the disk.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"randsync/internal/frame"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// frameJob is the frame type wrapping one persisted job record.
const frameJob byte = 0x4A // 'J'

// ErrShuttingDown reports a submission that raced a Close; the HTTP
// layer maps it to 503.
var ErrShuttingDown = errors.New("service: server is shutting down")

// ErrNoSuchJob reports an operation on a job ID the daemon has never
// seen; the HTTP layer maps it to 404.
var ErrNoSuchJob = errors.New("service: no such job")

// ErrAlreadyTerminal reports a cancellation of a job that already
// reached a terminal state; the HTTP layer maps it to 409.
var ErrAlreadyTerminal = errors.New("service: job is already terminal")

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateTimeout is the terminal state of a job whose DeadlineSeconds
	// expired; its engine checkpoint is retained, so resubmitting the
	// same spec resumes rather than restarts.
	StateTimeout = "timeout"
	// StateCancelled is the terminal state of a job removed by
	// DELETE /v1/jobs/{id}; its checkpoint is likewise retained.
	StateCancelled = "cancelled"
)

// TerminalState reports whether state names a terminal job state: the
// job will never transition again and holds exactly one honest outcome.
func TerminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateTimeout, StateCancelled:
		return true
	}
	return false
}

// Stop reasons: why a running job's interrupt channel was closed.  The
// reason decides the terminal state (or requeue) once the engine drains.
const (
	stopCancel   = "cancel"
	stopDeadline = "deadline"
	stopShutdown = "shutdown"
)

// JobStatus is the wire form of one job's lifecycle: spec, state, and
// on completion the verdict summary plus the artifact address of the
// full document.  It is also the durable job record (one frame at
// jobs/<id>/job.rec), rewritten atomically on every transition.
type JobStatus struct {
	SchemaVersion int     `json:"schemaVersion"`
	ID            string  `json:"id"`
	Spec          JobSpec `json:"spec"`
	// State is queued, running, done, failed, timeout or cancelled.
	State string `json:"state"`
	// Verdict, Configs and Artifact are set once State is done; Artifact
	// is the content address of the verdict document in the store.
	Verdict  string `json:"verdict,omitempty"`
	Configs  int    `json:"configs,omitempty"`
	Artifact string `json:"artifact,omitempty"`
	// Error is set once State is failed; Stack carries the recovered
	// stack when the failure was a panicking engine.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Runs counts executions started; Resumes counts interrupted runs
	// that went back to the queue with a checkpoint on disk.
	Runs    int `json:"runs,omitempty"`
	Resumes int `json:"resumes,omitempty"`
	// Retries counts transient-failure re-executions; LastFailure and
	// FailureClass describe the most recent engine failure; NextRetryMS
	// is the wall-clock time (Unix ms) of the pending backoff retry, 0
	// when none is pending.
	Retries      int    `json:"retries,omitempty"`
	LastFailure  string `json:"lastFailure,omitempty"`
	FailureClass string `json:"failureClass,omitempty"`
	NextRetryMS  int64  `json:"nextRetryMs,omitempty"`
	// DeadlineAtMS is the job's absolute deadline (Unix ms), stamped at
	// submission from Spec.DeadlineSeconds; 0 means no deadline.
	DeadlineAtMS int64 `json:"deadlineAtMs,omitempty"`
	// CancelRequested records that cancellation was requested while the
	// job was running (the engine drains to its checkpoint first).
	CancelRequested bool `json:"cancelRequested,omitempty"`
	// Seq is the completion order across the daemon's lifetime (1-based);
	// 0 until the job reaches a terminal state.
	Seq int64 `json:"seq,omitempty"`
}

func (j *JobStatus) terminal() bool { return TerminalState(j.State) }

// Config wires a Server, one field per component seam (the style of
// modular daemons: every dependency explicit, every knob defaulted).
type Config struct {
	// DataDir roots all durable state: artifacts/, jobs/<id>/.  Required.
	DataDir string
	// FS is the filesystem seam (nil = the real OS).  Tests interpose
	// fault.DiskChaos here to crash the daemon at a chosen write.
	FS frame.FS
	// MaxActive caps concurrently running jobs (default 2).
	MaxActive int
	// Workers is the engine's pool width per job (default 2).  A job
	// drained under one width and resumed under another starts over.
	Workers int
	// SpillCheckpointEvery tightens the engine's checkpoint cadence
	// (admissions between manifests) so shutdown cuts lose little work
	// (default 4096).
	SpillCheckpointEvery int
	// DistWorkers and DistCheckpointEvery are ignored; they sized a
	// cluster engine the daemon no longer runs.
	DistWorkers         int
	DistCheckpointEvery int
	// MaxQueuedPerTenant caps one tenant's queued (non-running,
	// non-terminal) jobs; MaxActivePerTenant caps one tenant's
	// concurrently running jobs; MaxQueue bounds queued jobs
	// daemon-wide.  0 means unlimited.  Over-quota submissions return
	// *QuotaError (HTTP 429 + Retry-After).
	MaxQueuedPerTenant int
	MaxActivePerTenant int
	MaxQueue           int
	// RetryMax is the per-job budget of transient-failure re-executions
	// (default 3; negative disables retries).  RetryBase and RetryCap
	// shape the capped exponential backoff between attempts (defaults
	// 100ms and 30s); RetrySeed seeds the deterministic jitter.
	RetryMax  int
	RetryBase time.Duration
	RetryCap  time.Duration
	RetrySeed uint64
	// Paused starts the scheduler stopped: jobs queue but none run until
	// Resume.  The fairness tests use this to build a deterministic
	// backlog before releasing the scheduler.
	Paused bool
	// Logf receives operational logs (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	c.FS = frame.OrOS(c.FS)
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SpillCheckpointEvery == 0 {
		c.SpillCheckpointEvery = 4096
	}
	if c.RetryMax == 0 {
		c.RetryMax = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is the coordinator: one mutex owns the job table, the
// per-tenant queues and the scheduler counters; jobs run on their own
// goroutines and re-enter the lock only to report transitions.  The
// mutex guards memory only: every frame.FS call — job records, the
// artifact store, directory creation — happens with it released.
type Server struct {
	cfg   Config
	store *Store

	mu     sync.Mutex
	events *sync.Cond // broadcast on every publication
	// idle is broadcast when active drops to zero, when a job's record
	// writer goes idle, and when a commit someone waits on lands.
	idle         *sync.Cond
	jobs         map[string]*job
	queues       map[string][]*job // per-tenant FIFO
	tenants      []string          // first-seen order, the round-robin ring
	rr           int               // next ring slot to try
	active       int
	activeTenant map[string]int    // running jobs per tenant
	lastErr      map[string]string // most recent failure message per tenant
	paused       bool
	closed       bool
	seq          int64
	writers      int          // jobs whose record writer is running
	persist      persistStats // the commit path's counters

	// testHook, when set by a same-package test, runs at the top of
	// every engine invocation — inside the recover guard — so the panic
	// isolation path can be exercised without registering a panicking
	// protocol.
	testHook func(spec *JobSpec)
}

type job struct {
	// st is the scheduler's view: every transition mutates it under s.mu
	// the moment it is decided.  pub is the published view — what Job,
	// Jobs, healthz and the event streams show; it follows st at once for
	// states nobody is promised on disk (running, a pending retry) and
	// only after the record is durable for the rest (commit.go).
	st  JobStatus
	pub JobStatus
	ver int64 // bumped on every publication, 0 until the first; event streams follow it

	// stop is the run's interrupt channel, non-nil while the job
	// executes; stopReason (set under s.mu before the close) tells the
	// completion path why the engine was drained.
	stop       chan struct{}
	stopReason string

	deadlineTimer *time.Timer // fires deadlineExpired; nil without a deadline
	retryTimer    *time.Timer // fires retryReady; nil without a pending retry

	// The job's record writer (commit.go): next is the snapshot waiting
	// to be written, writing says a goroutine owns job.rec and its staging
	// file, hasDir that the job directory exists.
	next    *commit
	writing bool
	hasDir  bool
}

// New opens (creating if needed) a server over dataDir, reloads the
// job table from disk, re-queues unfinished jobs, and — unless Paused —
// starts the scheduler.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir is required")
	}
	store, err := NewStore(filepath.Join(cfg.DataDir, "artifacts"), cfg.FS)
	if err != nil {
		return nil, err
	}
	if n := store.Swept(); n > 0 {
		cfg.Logf("service: swept %d orphaned artifact temp file(s)", n)
	}
	if err := cfg.FS.MkdirAll(filepath.Join(cfg.DataDir, "jobs")); err != nil {
		return nil, fmt.Errorf("service: create jobs dir: %w", err)
	}
	s := &Server{
		cfg:          cfg,
		store:        store,
		jobs:         make(map[string]*job),
		queues:       make(map[string][]*job),
		activeTenant: make(map[string]int),
		lastErr:      make(map[string]string),
		paused:       cfg.Paused,
	}
	s.events = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

// loadJobs re-reads every persisted job record.  Queued and running
// jobs go back to the queue (a running job's engine checkpoint, if any,
// makes the re-run a resume); an expired deadline times the job out
// right here, an unexpired one re-arms; terminal jobs are kept for
// status and artifact serving.  Corrupt records are logged and skipped,
// not fatal: one torn record must not brick the daemon.
func (s *Server) loadJobs() error {
	dir := filepath.Join(s.cfg.DataDir, "jobs")
	ents, err := s.cfg.FS.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("service: read jobs dir: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids) // deterministic reload order
	// Every record is read before the lock is taken: nothing contends for
	// it yet, but the lock never covers a disk call, here included.
	var loaded []*JobStatus
	for _, id := range ids {
		st, err := s.readJobRecord(id)
		if err != nil {
			s.cfg.Logf("service: skipping job %s: %v", id, err)
			continue
		}
		loaded = append(loaded, st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range loaded {
		j := &job{st: *st, hasDir: true}
		if !j.st.terminal() {
			// Backoff delays do not survive restarts: the job goes
			// straight back in line.
			j.st.NextRetryMS = 0
		}
		s.jobs[j.st.ID] = j
		s.publishLocked(j, &j.st) // what the disk says, until a transition below says more
		if j.st.Seq > s.seq {
			s.seq = j.st.Seq
		}
		switch j.st.State {
		case StateRunning:
			// The daemon died (or was killed) mid-run; the engine
			// checkpoint on disk is the resume point.
			j.st.State = StateQueued
			j.st.Resumes++
			s.persistLocked(j, nil)
			fallthrough
		case StateQueued:
			if j.st.DeadlineAtMS > 0 && time.Now().UnixMilli() >= j.st.DeadlineAtMS {
				s.finishLocked(j, StateTimeout)
			} else {
				s.armDeadlineLocked(j)
				s.enqueueLocked(j)
			}
		}
	}
	return nil
}

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id)
}

// readJobRecord reads and verifies one persisted record.  ReadFile
// retries a transient read fault (the disk-chaos drills inject them at
// reload time too), so one does not cost a job its history.
func (s *Server) readJobRecord(id string) (*JobStatus, error) {
	payload, err := frame.ReadFile(s.cfg.FS, filepath.Join(s.jobDir(id), "job.rec"), frameJob, nil)
	if err != nil {
		return nil, fmt.Errorf("job record: %w", err)
	}
	var st JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("corrupt job record: %w", err)
	}
	if st.ID != id {
		return nil, fmt.Errorf("job record names %s, directory is %s", st.ID, id)
	}
	return &st, nil
}

// Submit validates, dedups and enqueues a job.  A spec whose ID matches
// an existing queued, running or done job is a duplicate: the existing
// status is returned and nothing is enqueued.  Resubmitting a failed,
// timed-out or cancelled job re-runs it (resuming from any checkpoint
// its earlier runs left).  Over-quota submissions return *QuotaError.
//
// Submit returns only once the job's queued record is on disk — a
// duplicate that finds the first copy's record still in flight waits
// for it too — and the job is handed to the scheduler only then, so an
// acknowledged job survives any crash and a refused one never ran.
func (s *Server) Submit(spec JobSpec) (JobStatus, bool, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	id := spec.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.settledLocked(id)
	if s.closed {
		return JobStatus{}, false, ErrShuttingDown
	}
	if j != nil {
		switch j.st.State {
		case StateQueued, StateRunning, StateDone:
			return j.pub, true, nil
		}
	}
	if err := s.quotaLocked(spec.Tenant); err != nil {
		return JobStatus{}, false, err
	}
	fresh := j == nil
	if fresh {
		j = &job{st: JobStatus{SchemaVersion: valency.ReportSchemaVersion, ID: id}}
		s.jobs[id] = j
	}
	prev := j.st
	// A resubmission of a terminal job starts a fresh lifecycle over the
	// old checkpoints: outcome fields reset, history counters persist.
	j.st.Spec = spec
	j.st.State = StateQueued
	j.st.Verdict, j.st.Configs, j.st.Artifact = "", 0, ""
	j.st.Error, j.st.Stack = "", ""
	j.st.LastFailure, j.st.FailureClass = "", ""
	j.st.Retries, j.st.NextRetryMS = 0, 0
	j.st.CancelRequested = false
	j.st.Seq = 0
	j.st.DeadlineAtMS = 0
	if spec.DeadlineSeconds > 0 {
		j.st.DeadlineAtMS = time.Now().UnixMilli() + int64(spec.DeadlineSeconds)*1000
	}
	// Until the record lands the job sits in the table — duplicates find
	// it, quotas count it — but in no queue, so nothing can run it.
	var (
		landed bool
		out    JobStatus
		werr   error
	)
	s.persistLocked(j, func(st *JobStatus, err error) {
		landed, werr = true, err
		if err != nil {
			// The previous record (or none) is what the disk still holds;
			// put the table back in step with it.
			if fresh {
				delete(s.jobs, id)
			} else {
				j.st = prev
			}
			return
		}
		s.publishLocked(j, st)
		s.armDeadlineLocked(j)
		s.enqueueLocked(j)
		s.dispatchLocked()
		out = j.pub // dispatch is eager, so this may already say running
	})
	for !landed {
		s.idle.Wait()
	}
	if werr != nil {
		return JobStatus{}, false, werr
	}
	return out, false, nil
}

// quotaLocked enforces the global queue bound and the submitting
// tenant's queued-job cap.  The Retry-After suggestion is deliberately
// simple — one second — long enough for a scheduler slot to turn over
// on typical jobs, short enough that an obedient client converges fast.
func (s *Server) quotaLocked(tenant string) error {
	if s.cfg.MaxQueue <= 0 && s.cfg.MaxQueuedPerTenant <= 0 {
		return nil
	}
	total, mine := 0, 0
	for _, j := range s.jobs {
		if j.st.State != StateQueued {
			continue
		}
		total++
		if j.st.Spec.Tenant == tenant {
			mine++
		}
	}
	if s.cfg.MaxQueue > 0 && total >= s.cfg.MaxQueue {
		return &QuotaError{
			Reason:     fmt.Sprintf("queue is full (%d jobs)", total),
			RetryAfter: time.Second,
		}
	}
	if s.cfg.MaxQueuedPerTenant > 0 && mine >= s.cfg.MaxQueuedPerTenant {
		return &QuotaError{
			Tenant:     tenant,
			Reason:     fmt.Sprintf("has %d queued jobs (cap %d)", mine, s.cfg.MaxQueuedPerTenant),
			RetryAfter: time.Second,
		}
	}
	return nil
}

func (s *Server) enqueueLocked(j *job) {
	t := j.st.Spec.Tenant
	if _, ok := s.queues[t]; !ok {
		s.tenants = append(s.tenants, t)
	}
	s.queues[t] = append(s.queues[t], j)
}

// removeQueuedLocked takes j out of its tenant's queue if present.
func (s *Server) removeQueuedLocked(j *job) {
	t := j.st.Spec.Tenant
	q := s.queues[t]
	for i, cand := range q {
		if cand == j {
			s.queues[t] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// nextLocked pops the next job round-robin across the tenant ring, so
// a tenant with a deep backlog cannot starve one with a single job;
// tenants at their active-job cap are skipped.
func (s *Server) nextLocked() *job {
	for range s.tenants {
		t := s.tenants[s.rr%len(s.tenants)]
		s.rr++
		if s.cfg.MaxActivePerTenant > 0 && s.activeTenant[t] >= s.cfg.MaxActivePerTenant {
			continue
		}
		if q := s.queues[t]; len(q) > 0 {
			j := q[0]
			s.queues[t] = q[1:]
			return j
		}
	}
	return nil
}

// dispatchLocked fills free scheduler slots.  There is no dispatcher
// goroutine: submit, completion, retry readiness, Resume and startup
// each call this while holding the lock.
func (s *Server) dispatchLocked() {
	if s.paused || s.closed {
		return
	}
	for s.active < s.cfg.MaxActive {
		j := s.nextLocked()
		if j == nil {
			return
		}
		j.st.State = StateRunning
		j.st.Runs++
		s.active++
		s.activeTenant[j.st.Spec.Tenant]++
		j.stop = make(chan struct{})
		j.stopReason = ""
		// Nobody waits on the running record, and a restart treats it
		// exactly like queued except for Resumes++, so it is written
		// behind the dispatch: the slot is taken without waiting on disk.
		s.persistLocked(j, nil)
		go s.runJob(j)
	}
}

// Resume releases a Paused scheduler.
func (s *Server) Resume() {
	s.mu.Lock()
	s.paused = false
	s.dispatchLocked()
	s.mu.Unlock()
}

// stopRunLocked closes a running job's interrupt channel with a reason;
// the first reason wins (a cancel racing a deadline racing a shutdown
// resolves to whichever got the lock first).
func (s *Server) stopRunLocked(j *job, reason string) {
	if j.stop != nil && j.stopReason == "" {
		j.stopReason = reason
		close(j.stop)
	}
}

// finishLocked moves j to a terminal state, stamps its completion
// sequence number, stops its timers and persists the record.  The state
// (and its Seq) is published only once the record is on disk.  A done
// record that cannot be written turns the run into a failure (classified
// like any other, so a disk hiccup retries): done promises the verdict
// survives a restart.  The other terminal states have nothing to fall
// back to, so theirs is logged and the state published anyway — the
// daemon stays honest in memory, and a restart re-runs the job.
func (s *Server) finishLocked(j *job, state string) {
	if j.deadlineTimer != nil {
		j.deadlineTimer.Stop()
		j.deadlineTimer = nil
	}
	if j.retryTimer != nil {
		j.retryTimer.Stop()
		j.retryTimer = nil
	}
	j.st.NextRetryMS = 0
	s.seq++
	j.st.State = state
	j.st.Seq = s.seq
	s.persistLocked(j, func(st *JobStatus, err error) {
		if err != nil && st.State == StateDone {
			j.st.Verdict, j.st.Configs, j.st.Artifact, j.st.Seq = "", 0, "", 0
			s.armDeadlineLocked(j)
			s.failLocked(j, err)
			return
		}
		s.publishLocked(j, st)
	})
}

// armDeadlineLocked (re-)arms j's deadline timer from DeadlineAtMS.
func (s *Server) armDeadlineLocked(j *job) {
	if j.deadlineTimer != nil {
		j.deadlineTimer.Stop()
		j.deadlineTimer = nil
	}
	if j.st.DeadlineAtMS == 0 {
		return
	}
	d := time.Until(time.UnixMilli(j.st.DeadlineAtMS))
	if d < 0 {
		d = 0
	}
	j.deadlineTimer = time.AfterFunc(d, func() { s.deadlineExpired(j) })
}

// deadlineExpired fires when a job's wall-clock deadline passes.  A
// queued job (including one waiting out a backoff) times out on the
// spot; a running job's engine is interrupted and the completion path
// lands it in timeout once the checkpoint is written.
func (s *Server) deadlineExpired(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || j.st.terminal() || j.st.DeadlineAtMS == 0 {
		return
	}
	if time.Now().UnixMilli() < j.st.DeadlineAtMS {
		// A resubmission moved the deadline; the timer was re-armed.
		return
	}
	switch j.st.State {
	case StateRunning:
		s.stopRunLocked(j, stopDeadline)
	case StateQueued:
		s.removeQueuedLocked(j)
		s.finishLocked(j, StateTimeout)
	}
}

// Cancel removes a job: queued jobs (and jobs waiting out a retry
// backoff) land in cancelled immediately; a running job's engine is
// interrupted — it drains to its checkpoint first, so the returned
// status still says running with CancelRequested set, and the event
// stream delivers the cancelled state moments later.  Terminal jobs
// return ErrAlreadyTerminal.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.settledLocked(id)
	if j == nil {
		return JobStatus{}, ErrNoSuchJob
	}
	switch {
	case j.st.terminal():
		return j.pub, ErrAlreadyTerminal
	case j.st.State == StateRunning:
		if !j.st.CancelRequested {
			j.st.CancelRequested = true
			s.stopRunLocked(j, stopCancel)
			s.persistLocked(j, nil)
		}
	default: // queued, possibly in backoff
		s.removeQueuedLocked(j)
		j.st.CancelRequested = true
		s.finishLocked(j, StateCancelled)
		s.dispatchLocked()
		// The answer says cancelled, so it waits for the record.
		for j.writing {
			s.idle.Wait()
		}
	}
	return j.pub, nil
}

// runJob executes one job to a verdict, a checkpointed interrupt, a
// retryable failure, or a terminal failure, then frees its scheduler
// slot.  A verdict's document goes into the store before the lock is
// taken, so done is only ever recorded over a durable artifact; the
// record itself is written after the slot is released.
func (s *Server) runJob(j *job) {
	rep, err := s.executeRecovered(j)
	var verdict, artifact string
	if err == nil {
		verdict, artifact, err = s.storeVerdict(rep, &j.st.Spec)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	s.activeTenant[j.st.Spec.Tenant]--
	reason := j.stopReason
	j.stop = nil
	j.stopReason = ""

	switch {
	case err == nil:
		j.st.Verdict = verdict
		j.st.Configs = rep.Configs
		j.st.Artifact = artifact
		s.finishLocked(j, StateDone)
	case errors.Is(err, valency.ErrInterrupted):
		// The engine drained to a checkpoint; the stop reason says where
		// the job goes next.
		switch reason {
		case stopCancel:
			s.finishLocked(j, StateCancelled)
		case stopDeadline:
			s.finishLocked(j, StateTimeout)
		default:
			// Shutdown drain: back to the queue so the next daemon
			// generation resumes it.
			j.st.State = StateQueued
			j.st.Resumes++
			s.persistLocked(j, nil)
		}
	default:
		// A cancel or deadline that raced the engine's own failure (or
		// the store's) still wins: the user asked for the job to end, and
		// it has.
		switch reason {
		case stopCancel:
			s.finishLocked(j, StateCancelled)
		case stopDeadline:
			s.finishLocked(j, StateTimeout)
		default:
			s.failLocked(j, err)
		}
	}
	if s.active == 0 {
		s.idle.Broadcast()
	}
	s.dispatchLocked()
}

// storeVerdict renders a successful run's document and lands it in the
// artifact store, returning what the job record keeps of it: the verdict
// word and the document's address.  The returned error (document
// rendering or store failure) sends the job down the
// failure-classification path instead.
func (s *Server) storeVerdict(rep *valency.Report, spec *JobSpec) (verdict, artifact string, err error) {
	doc, err := VerdictDocument(rep, spec)
	if err != nil {
		return "", "", err
	}
	artifact, _, err = s.store.Put(doc)
	if err != nil {
		return "", "", err
	}
	var parsed valency.JSONReport
	_ = json.Unmarshal(doc, &parsed)
	return parsed.Verdict, artifact, nil
}

// failLocked classifies a run failure: a transient failure with budget
// left schedules a backoff retry (the engine checkpoint makes the
// re-run a resume); everything else is a terminal failure, with the
// recovered stack in the record when a panic caused it.
func (s *Server) failLocked(j *job, err error) {
	class, stack := classify(err)
	j.st.LastFailure = err.Error()
	j.st.FailureClass = class
	s.lastErr[j.st.Spec.Tenant] = err.Error()
	if class == failureTransient && s.cfg.RetryMax > 0 && j.st.Retries < s.cfg.RetryMax && !s.closed {
		j.st.Retries++
		j.st.State = StateQueued
		delay := s.cfg.retryDelay(frame.Fingerprint([]byte(j.st.ID)), j.st.Retries)
		j.st.NextRetryMS = time.Now().UnixMilli() + delay.Milliseconds()
		s.persistLocked(j, nil)
		s.cfg.Logf("service: job %s transient failure (retry %d/%d in %v): %v",
			j.st.ID, j.st.Retries, s.cfg.RetryMax, delay, err)
		j.retryTimer = time.AfterFunc(delay, func() { s.retryReady(j) })
		return
	}
	j.st.Error = err.Error()
	j.st.Stack = stack
	s.finishLocked(j, StateFailed)
	s.cfg.Logf("service: job %s failed (%s): %v", j.st.ID, class, err)
}

// retryReady fires when a job's backoff delay elapses: the job goes
// back in its tenant's queue and the scheduler gets a chance to run it.
func (s *Server) retryReady(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.retryTimer = nil
	if s.closed || j.st.State != StateQueued || j.st.NextRetryMS == 0 {
		return
	}
	j.st.NextRetryMS = 0
	s.persistLocked(j, nil)
	s.enqueueLocked(j)
	s.dispatchLocked()
}

// executeRecovered runs the job's engine under recover: a panic on this
// goroutine (protocol code runs in engine workers, but resolver and
// setup code runs here) becomes a classified permanent failure instead
// of a dead daemon.  Worker-goroutine panics are recovered inside the
// engine itself and arrive as *explore.PanicError through err.
func (s *Server) executeRecovered(j *job) (rep *valency.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			err = &panicFailure{val: fmt.Sprintf("%v", r), stack: string(debug.Stack())}
		}
	}()
	if s.testHook != nil {
		s.testHook(&j.st.Spec)
	}
	return s.execute(&j.st.Spec, j.st.ID, j.stop)
}

// execute runs the job on the disk-tiered engine.  The run checkpoints
// into the job's directory and resumes from whatever cut it finds
// there, so execute after a crash, drain, timeout or retry continues,
// never restarts — except over a checkpoint this build cannot resume,
// which is deleted so the job starts over from its spec.
func (s *Server) execute(spec *JobSpec, id string, stop <-chan struct{}) (*valency.Report, error) {
	proto, err := zoo.Resolve(spec.ProtoSpec())
	if err != nil {
		return nil, err
	}
	opts := valency.Options{
		MaxConfigs:           spec.Budget,
		MemBudget:            spec.MemBudget,
		NoSymmetry:           spec.NoSymmetry,
		Crash:                spec.Crash,
		Workers:              s.cfg.Workers,
		SpillDir:             filepath.Join(s.jobDir(id), "spill"),
		SpillFS:              s.cfg.FS,
		SpillResume:          true, // no manifest = fresh start, so always safe
		SpillCheckpointEvery: int64(s.cfg.SpillCheckpointEvery),
		Interrupt: func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		},
	}
	check := func() (*valency.Report, error) {
		if spec.AllInputs {
			return valency.CheckAllInputsSpill(proto, spec.N, opts)
		}
		return valency.CheckSpill(proto, spec.Inputs, opts)
	}
	rep, err := check()
	if errors.Is(err, valency.ErrCannotResume) {
		s.cfg.Logf("service: job %s: %v; starting over", id, err)
		if err := removeTree(s.cfg.FS, opts.SpillDir); err != nil {
			return nil, err
		}
		rep, err = check()
	}
	return rep, err
}

// removeTree deletes path and everything under it through fsys.
func removeTree(fsys frame.FS, path string) error {
	ents, _ := fsys.ReadDir(path) // none for a file; a failed read fails the Remove below
	for _, e := range ents {
		if err := removeTree(fsys, filepath.Join(path, e.Name())); err != nil {
			return err
		}
	}
	if err := fsys.Remove(path); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	return nil
}

// Job returns a job's current status.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.ver == 0 {
		return JobStatus{}, false
	}
	return j.pub, true
}

// Jobs lists every known job, ordered by ID.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.ver > 0 {
			out = append(out, j.pub)
		}
	}
	s.mu.Unlock()
	// Sorted outside the lock: the table grows without bound over a
	// daemon's life and a listing must not stall submits.
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Artifact returns a stored verdict document by content address.
func (s *Server) Artifact(hash string) ([]byte, error) { return s.store.Get(hash) }

// Health reports the daemon's state for GET /v1/healthz: draining once
// Close has begun, degraded while transient failures are being retried
// (a job waits in backoff, or a running job has recorded retries),
// otherwise ok — plus per-tenant depths, retry counters and the last
// failure message.
func (s *Server) Health() Health {
	stored := s.store.Stats() // its own lock; taken first so the two never nest
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{Status: HealthOK, Tenants: make(map[string]TenantHealth), Persist: s.persist.health(stored)}
	if s.closed {
		h.Status = HealthDraining
	}
	degraded := false
	for _, j := range s.jobs {
		if j.ver == 0 {
			continue // a first submission whose record is still in flight
		}
		t := j.pub.Spec.Tenant
		th := h.Tenants[t]
		th.Retries += int64(j.pub.Retries)
		switch j.pub.State {
		case StateQueued:
			h.Queued++
			th.Queued++
			if j.pub.NextRetryMS != 0 {
				th.Retrying++
				degraded = true
			}
		case StateRunning:
			h.Running++
			th.Running++
			if j.pub.Retries > 0 {
				degraded = true
			}
		case StateFailed:
			th.Failures++
		}
		h.Tenants[t] = th
	}
	for t, msg := range s.lastErr {
		th := h.Tenants[t]
		th.LastError = msg
		h.Tenants[t] = th
	}
	if degraded && h.Status == HealthOK {
		h.Status = HealthDegraded
	}
	return h
}

// WaitChange blocks until job id's version exceeds since, the job
// reaches a terminal state, or the server closes; it returns the
// current status, its version, and whether the stream should continue.
// A caller streaming events calls this in a loop, passing each returned
// version back in.  Kick unblocks waiters whose context died.
func (s *Server) WaitChange(id string, since int64, cancelled func() bool) (JobStatus, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		j, ok := s.jobs[id]
		if !ok || j.ver == 0 {
			return JobStatus{}, since, false
		}
		if j.ver > since {
			return j.pub, j.ver, !j.pub.terminal()
		}
		if s.closed || j.pub.terminal() || (cancelled != nil && cancelled()) {
			return j.pub, j.ver, false
		}
		s.events.Wait()
	}
}

// Kick wakes every WaitChange waiter so it can re-check its
// cancellation condition; the HTTP layer calls it when a streaming
// request's context ends.
func (s *Server) Kick() {
	s.mu.Lock()
	s.events.Broadcast()
	s.mu.Unlock()
}

// Queued reports (queued, running) job counts — test introspection.
func (s *Server) Queued() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.queues {
		queued += len(q)
	}
	return queued, s.active
}

// Close drains the server: the scheduler stops, every running engine
// is interrupted and writes a final checkpoint, interrupted jobs go
// back to the queue as persisted records, pending deadline and retry
// timers are stopped (their jobs stay queued; a restart re-arms or
// re-enqueues), and Close returns once no job is running and no job
// record is in flight.  A later New over the same DataDir resumes them.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.jobs {
		s.stopRunLocked(j, stopShutdown)
		if j.deadlineTimer != nil {
			j.deadlineTimer.Stop()
			j.deadlineTimer = nil
		}
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
	}
	for s.active > 0 || s.writers > 0 {
		s.idle.Wait()
	}
	s.events.Broadcast() // end every event stream
	s.mu.Unlock()
	return nil
}
