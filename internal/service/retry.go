package service

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"syscall"
	"time"

	"randsync/internal/explore"
	"randsync/internal/fault"
)

// Failure classes.  Every engine error a job dies with is classified so
// the scheduler knows whether re-running the job from its checkpoint can
// possibly help: transient failures (disk I/O hiccups) requeue with
// backoff and a per-job attempt budget; permanent failures (invalid
// specs, panicking protocols) fail the job on the first occurrence.
const (
	failureTransient = "transient"
	failurePermanent = "permanent"
)

// panicFailure is the service-level recover wrapper: a panic escaping an
// engine invocation (on the job goroutine itself — worker-goroutine
// panics surface as *explore.PanicError) becomes this error, carrying
// the stack into the job record instead of down the daemon.
type panicFailure struct {
	val   string
	stack string
}

func (e *panicFailure) Error() string { return "service: engine panic: " + e.val }

// classify sorts an engine error into a failure class and extracts the
// panic stack when there is one.
//
// Transient: anything the disk-fault injector marks as its own
// (fault.IsInjected) and raw filesystem errors (*fs.PathError, syscall
// errnos, short reads) — all of these can heal on a re-run that resumes
// from the checkpoint.
//
// Permanent: recovered panics (a protocol that panics will panic
// again), spec resolution failures, and anything unrecognized — when in
// doubt, failing honestly beats retrying forever.
func classify(err error) (class, stack string) {
	var pe *explore.PanicError
	if errors.As(err, &pe) {
		return failurePermanent, pe.Stack
	}
	var pf *panicFailure
	if errors.As(err, &pf) {
		return failurePermanent, pf.stack
	}
	if fault.IsInjected(err) {
		return failureTransient, ""
	}
	var pathErr *iofs.PathError
	var errno syscall.Errno
	switch {
	case errors.As(err, &pathErr),
		errors.As(err, &errno),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrShortWrite):
		return failureTransient, ""
	}
	return failurePermanent, ""
}

// retryDelay computes the backoff before attempt number `attempt`
// (1-based) of a job: capped exponential growth from RetryBase with
// deterministic seeded jitter, so a thundering herd of jobs failed by
// one disk hiccup does not re-land in lockstep — and so any soak
// failure replays exactly from its seed.  Jitter adds up to 50% of the
// base delay, derived splitmix64-style from (seed, job fingerprint,
// attempt).
func (c *Config) retryDelay(jobFP uint64, attempt int) time.Duration {
	d := c.RetryBase
	for i := 1; i < attempt && d < c.RetryCap; i++ {
		d *= 2
	}
	if d > c.RetryCap {
		d = c.RetryCap
	}
	x := c.RetrySeed ^ jobFP ^ (uint64(attempt) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if d > 0 {
		d += time.Duration(x % uint64(d/2+1))
	}
	return d
}

// QuotaError reports a submission rejected by tenant quotas or the
// global queue bound; the HTTP layer maps it to 429 with a Retry-After
// header the client honors.
type QuotaError struct {
	// Tenant is the over-quota tenant ("" for the global queue bound).
	Tenant string
	// Reason is the human-readable quota that tripped.
	Reason string
	// RetryAfter is the server's suggested wait before resubmitting.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	if e.Tenant == "" {
		return fmt.Sprintf("service: %s; retry after %v", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("service: tenant %s %s; retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// TenantHealth is one tenant's slice of the health report.
type TenantHealth struct {
	// Queued counts the tenant's jobs waiting to run (including jobs
	// waiting out a retry backoff); Running counts jobs executing now.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Retrying counts queued jobs currently waiting out a backoff delay;
	// Retries totals transient-failure re-executions across the tenant's
	// live jobs.
	Retrying int   `json:"retrying,omitempty"`
	Retries  int64 `json:"retries,omitempty"`
	// Failures counts jobs in the failed terminal state.
	Failures int `json:"failures,omitempty"`
	// LastError is the most recent failure message recorded for the
	// tenant (transient or permanent).
	LastError string `json:"lastError,omitempty"`
}

// Health answers GET /v1/healthz: overall daemon state plus per-tenant
// queue depths, retry counts and last-error summaries.
type Health struct {
	// Status is "ok", "degraded" (transient failures are being retried:
	// a job is waiting out a backoff delay or a running job has already
	// been re-executed) or "draining" (Close in progress or complete).
	Status string `json:"status"`
	// Queued and Running are daemon-wide job counts.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Tenants breaks the counts down per tenant.
	Tenants map[string]TenantHealth `json:"tenants,omitempty"`
	// Persist is the disk's slice: records and artifacts written, and how
	// long a commit takes.
	Persist PersistHealth `json:"persist"`
}

// Health status values.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthDraining = "draining"
)
