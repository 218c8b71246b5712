// Command checkd is the checker-as-a-service daemon: a persistent,
// multi-tenant job coordinator (internal/service) exposing the
// exhaustive valency checker over an HTTP/JSON API.
//
//	checkd -data /var/lib/checkd -listen 127.0.0.1:8347
//
// Jobs are submitted as JSON (POST /v1/jobs), run on the in-process
// disk-tiered engine with per-tenant round-robin fairness, and their
// verdict documents land in a content-addressed artifact store under -data
// (GET /v1/artifacts/{hash}).  Jobs carry optional deadlines and can be
// cancelled (DELETE /v1/jobs/{id}); transient engine failures retry
// with capped seeded backoff from the engine checkpoint; per-tenant
// and global quotas answer over-quota submissions with 429 +
// Retry-After; GET /v1/healthz reports ok|degraded|draining with
// per-tenant depth/retry summaries.  SIGINT/SIGTERM drains running
// jobs to their engine checkpoints before exit; restarting the daemon
// over the same -data directory re-queues and resumes every unfinished
// job (one whose checkpoint the restarted daemon cannot resume, say
// under another -workers, starts over from its spec).
//
// -listen accepts ":0" for an ephemeral port; -addr-file then writes
// the bound address for scripts to pick up, which is how the smoke
// drills start a daemon without a port race.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"randsync/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "checkd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("checkd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving")
	dataDir := fs.String("data", "", "data directory for job records, checkpoints and artifacts (required)")
	maxActive := fs.Int("max-active", 2, "jobs running concurrently")
	workers := fs.Int("workers", 2, "engine pool width per job")
	spillEvery := fs.Int("spill-checkpoint-every", 4096, "engine admissions between checkpoints")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long shutdown waits for running jobs to reach a checkpoint")
	maxQueuedTenant := fs.Int("max-queued-per-tenant", 64, "queued jobs one tenant may hold, 0 = unlimited (429 over quota)")
	maxActiveTenant := fs.Int("max-active-per-tenant", 0, "running jobs one tenant may hold, 0 = unlimited")
	maxQueue := fs.Int("max-queue", 1024, "queued jobs daemon-wide, 0 = unlimited (429 over quota)")
	retryMax := fs.Int("retry-max", 3, "transient-failure re-executions per job (negative = never retry)")
	retryBase := fs.Duration("retry-base", 100*time.Millisecond, "first retry backoff; later attempts double up to -retry-cap")
	retryCap := fs.Duration("retry-cap", 30*time.Second, "retry backoff ceiling")
	retrySeed := fs.Uint64("retry-seed", 1, "seed for deterministic retry-backoff jitter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}

	logger := log.New(os.Stderr, "checkd: ", log.LstdFlags)
	srv, err := service.New(service.Config{
		DataDir:              *dataDir,
		MaxActive:            *maxActive,
		Workers:              *workers,
		SpillCheckpointEvery: *spillEvery,
		MaxQueuedPerTenant:   *maxQueuedTenant,
		MaxActivePerTenant:   *maxActiveTenant,
		MaxQueue:             *maxQueue,
		RetryMax:             *retryMax,
		RetryBase:            *retryBase,
		RetryCap:             *retryCap,
		RetrySeed:            *retrySeed,
		Logf:                 logger.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	logger.Printf("serving on %s, data in %s", ln.Addr(), *dataDir)

	hs := &http.Server{Handler: service.Handler(srv)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("%v: draining running jobs to checkpoints", sig)
	case err := <-serveErr:
		srv.Close()
		return err
	}

	// Drain order matters: first the coordinator (new submissions get
	// 503, running engines stop at a checkpoint, records persist), then
	// the HTTP listener, whose event streams have already ended.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(*drainTimeout):
		logger.Printf("drain timed out after %v; exiting anyway", *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	logger.Printf("stopped")
	return nil
}
