package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"randsync/internal/fault"
	"randsync/internal/valency"
)

// Loopback runs a whole cluster — coordinator plus `workers` worker
// loops — inside one process over 127.0.0.1 TCP, exercising the real
// wire protocol end to end.  It is the single-binary mode behind
// `distcheck -loopback N`, the differential-test harness, and the only
// mode that works on an air-gapped single machine.
//
// hooks[i], when present and non-nil, is installed as worker i's batch
// hook (WorkerOptions.Hook); a hook that panics kills only that worker
// goroutine — its connection closes and the coordinator's recovery
// path takes over, which is exactly how the fault-injection tests
// murder a worker mid-run.
func Loopback(workers int, job Job, opts Options, hooks ...func(batchID int64)) (*valency.Report, error) {
	return LoopbackChaos(LoopbackConfig{Workers: workers, Hooks: hooks}, job, opts)
}

// LoopbackConfig parameterizes LoopbackChaos beyond plain Loopback.
type LoopbackConfig struct {
	// Workers is the cluster size (at least 1).
	Workers int
	// Hooks[i], when present and non-nil, is worker i's batch hook.
	Hooks []func(batchID int64)
	// ChaosSeed, when non-zero, interposes a deterministic
	// fault.NetProxy between the workers and the coordinator: every
	// worker connection is subjected to the seeded chaos plan (delays,
	// duplicates, reorders, truncations, cuts).  The same seed
	// over the same job reproduces the same chaos decision sequences.
	ChaosSeed uint64
	// ChaosPlan is the event mix; the zero value selects
	// fault.DefaultNetPlan().  Ignored when ChaosSeed is zero.
	ChaosPlan fault.NetPlanOptions
}

// Loopback workers (IDs 1..Workers) retry on a fast schedule with
// effectively unbounded attempts: the coordinator is in-process, so a
// retry loop should never be the reason a run hangs.
const (
	loopbackAttempts    = 1 << 20
	loopbackBaseBackoff = 5 * time.Millisecond
	loopbackMaxBackoff  = 250 * time.Millisecond
)

// LoopbackChaos is Loopback with reconnect-grade worker options and an
// optional deterministic network-chaos proxy on the wire.  When chaos
// ran and the run produced stats, the report's Recovery block carries
// the chaos seed and total events fired, so a soak verdict is auditable
// from the report alone.
func LoopbackChaos(cfg LoopbackConfig, job Job, opts Options) (*valency.Report, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: loopback needs at least one worker")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	addr := ln.Addr().String()

	var chaos *fault.NetChaos
	var proxy *fault.NetProxy
	if cfg.ChaosSeed != 0 {
		plan := cfg.ChaosPlan
		if plan == (fault.NetPlanOptions{}) {
			plan = fault.DefaultNetPlan()
		}
		chaos = fault.NewNetChaos(cfg.ChaosSeed, plan)
		proxy, err = fault.NewNetProxy(addr, chaos)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		addr = proxy.Addr()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wopts := WorkerOptions{
			ID:          uint64(i + 1),
			Done:        done,
			MaxAttempts: loopbackAttempts,
			BaseBackoff: loopbackBaseBackoff,
			MaxBackoff:  loopbackMaxBackoff,
		}
		if i < len(cfg.Hooks) {
			wopts.Hook = cfg.Hooks[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panicking hook must kill the worker, not the process:
			// Work's deferred conn.Close runs on the way out, which is
			// what the coordinator observes as the worker's death.
			defer func() { _ = recover() }()
			// Worker errors are not the test's verdict: a worker killed
			// by Stop or by coordinator shutdown errors out by design.
			_ = Work(addr, wopts)
		}()
	}

	rep, err := Serve(ln, cfg.Workers, job, opts)
	// Serve's exit closes every accepted connection; closing the
	// listener (and the chaos proxy) resets anything in flight, and
	// closing done stops the worker retry loops.  Only then is it safe
	// to wait for the worker goroutines to drain.
	ln.Close()
	if proxy != nil {
		proxy.Close()
	}
	close(done)
	wg.Wait()
	if chaos != nil && rep != nil && rep.Stats != nil && rep.Stats.Recovery != nil {
		rep.Stats.Recovery.ChaosSeed = chaos.Seed()
		rep.Stats.Recovery.ChaosEvents = chaos.Events()
	}
	return rep, err
}
