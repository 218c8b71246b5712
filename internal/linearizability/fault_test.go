package linearizability

import (
	"sync"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/object"
	"randsync/internal/runtime"
)

// injectedHistory runs n processes over the given per-process workload
// against a recorded object, with a fault plan injected at the recorder's
// object-level hook.  A crashed process's panic is recovered at its
// goroutine top — the aborted operation never enters the history — and the
// recorded history is returned for checking.
func injectedHistory(t *testing.T, rec *runtime.Recorder, n int, plan fault.Plan, work func(proc int)) []runtime.RecordedOp {
	t.Helper()
	inj := fault.NewInjector(n, plan, 0)
	rec.SetHook(func(proc int, _ object.Op) { inj.Point(proc) })
	var wg sync.WaitGroup
	for proc := 0; proc < n; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			defer func() { recover() }() // crash-stop: drop the process
			work(proc)
		}(proc)
	}
	wg.Wait()
	rec.SetHook(nil)
	return rec.Ops()
}

// TestCounterHistoryUnderCrashAndStall records a concurrent counter
// history while the injector crash-stops one process mid-run and stalls
// another, and checks that the surviving history is linearizable: a panic
// out of the hook aborts the operation before it takes effect or enters
// the history, so injected faults must never corrupt the record.
func TestCounterHistoryUnderCrashAndStall(t *testing.T) {
	const n, opsPer = 4, 12
	for seed := uint64(1); seed <= 8; seed++ {
		rec := &runtime.Recorder{}
		c := runtime.NewObject(object.CounterType{}, rec)
		plan := fault.Plan{Seed: seed, Events: []fault.Event{
			{Proc: int(seed) % n, Kind: fault.Crash, AtOp: int64(seed % opsPer)},
			{Proc: int(seed+1) % n, Kind: fault.Stall, AtOp: 2, Stall: 100 * time.Microsecond},
			{Proc: int(seed+2) % n, Kind: fault.Storm, AtOp: 1, Yields: 8},
		}}
		h := injectedHistory(t, rec, n, plan, func(proc int) {
			for i := 0; i < opsPer; i++ {
				if i%3 == 2 {
					c.Read(proc)
				} else {
					c.Do(proc, inc)
				}
			}
		})
		if len(h) >= n*opsPer {
			t.Fatalf("seed %d: crash dropped no operation (%d recorded)", seed, len(h))
		}
		res, err := Check(object.CounterType{}, h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Linearizable {
			t.Fatalf("seed %d: injected counter history not linearizable (%d ops)", seed, len(h))
		}
	}
}

// TestCASHistoryUnderCrash does the same for a compare&swap register, the
// object underpinning the n-process live consensus protocol.
func TestCASHistoryUnderCrash(t *testing.T) {
	const n = 4
	for seed := uint64(1); seed <= 8; seed++ {
		rec := &runtime.Recorder{}
		cas := runtime.NewObject(object.CASType{}, rec)
		plan := fault.SingleCrash(int(seed)%n, int64(seed%5))
		// 4 processes × 14 operations stays within the checker's MaxOps.
		h := injectedHistory(t, rec, n, plan, func(proc int) {
			for i := 0; i < 7; i++ {
				prev := cas.Read(proc)
				cas.Do(proc, object.Op{Kind: object.CompareAndSwap, Arg: int64(proc + 1), Arg2: prev})
			}
		})
		res, err := Check(object.CASType{}, h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Linearizable {
			t.Fatalf("seed %d: injected CAS history not linearizable (%d ops)", seed, len(h))
		}
	}
}

// forgetfulCounter is deliberately broken: Inc records but takes no
// effect, so a later Read legally returns 0 from the object while the
// recorded history says increments completed first.
type forgetfulCounter struct {
	rec *runtime.Recorder
}

func (f *forgetfulCounter) Inc(proc int) {
	f.rec.Record(proc, object.Op{Kind: object.Inc}, func() int64 { return 0 })
}

func (f *forgetfulCounter) Read(proc int) int64 {
	return f.rec.Record(proc, object.Op{Kind: object.Read}, func() int64 { return 0 })
}

// TestBrokenObjectCaughtUnderInjection verifies the checker's teeth are
// not dulled by fault injection: a broken counter that drops increments
// still yields a non-linearizable history even when recorded under the
// same crash/stall schedule as the healthy runs.
func TestBrokenObjectCaughtUnderInjection(t *testing.T) {
	const n = 3
	rec := &runtime.Recorder{}
	c := &forgetfulCounter{rec: rec}
	// Phase 1: two processes complete increments under stall/storm
	// injection (no crash: the violation must be the object's fault).
	plan := fault.Plan{Seed: 7, Events: []fault.Event{
		{Proc: 0, Kind: fault.Stall, AtOp: 1, Stall: 100 * time.Microsecond},
		{Proc: 1, Kind: fault.Storm, AtOp: 1, Yields: 8},
	}}
	injectedHistory(t, rec, n, plan, func(proc int) {
		if proc < 2 {
			c.Inc(proc)
		}
	})
	// Phase 2: with all increments returned, a read of 0 is stale.
	c.Read(2)
	res, err := Check(object.CounterType{}, rec.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("broken counter's history passed the linearizability check")
	}
}
