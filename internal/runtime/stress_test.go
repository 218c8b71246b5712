package runtime

import (
	"sync/atomic"
	"testing"

	"randsync/internal/explore"
)

// TestPoolStressLiveObjects hammers the live shared objects through
// explore.Each — the fan-out the all-inputs sweep, the hierarchy search
// and the distributed worker run on — and checks the aggregate
// invariants of their atomic semantics.  It stays fast enough for
// -short, and run under -race it cross-checks the fan-out's index
// claiming against the objects' atomics and the recorder's locking at
// once.
func TestPoolStressLiveObjects(t *testing.T) {
	const tasks = 64
	const opsPerTask = 200

	rec := &Recorder{}
	fa := NewFetchAdd(0, rec)
	ctr := NewCounter(nil)
	tas := NewTestAndSet(nil)
	cas := NewCAS(0, nil)
	sticky := NewStickyBit(nil)

	var tasWins, casWins atomic.Int64
	var stickyFirst atomic.Int64

	var processed atomic.Int64
	explore.Each(8, tasks, func(_, task int) bool {
		processed.Add(1)
		proc := task % 16
		for i := 0; i < opsPerTask; i++ {
			fa.FetchAdd(proc, 1)
			ctr.Inc(proc)
			if i%2 == 0 {
				ctr.Dec(proc)
			}
		}
		if tas.TestAndSet(proc) == 0 {
			tasWins.Add(1)
		}
		if cas.CompareAndSwap(proc, 0, int64(task)+1) == 0 {
			casWins.Add(1)
		}
		if v := sticky.Stick(proc, int64(task%2)+1); v != 0 {
			stickyFirst.CompareAndSwap(0, v)
		}
		return true
	})

	if got := processed.Load(); got != tasks {
		t.Fatalf("fan-out processed %d tasks, want %d", got, tasks)
	}
	if got := fa.Read(0); got != tasks*opsPerTask {
		t.Errorf("fetch&add total = %d, want %d", got, tasks*opsPerTask)
	}
	// Half of the increments are matched by decrements per task.
	if got := ctr.Read(0); got != tasks*opsPerTask/2 {
		t.Errorf("counter = %d, want %d", got, tasks*opsPerTask/2)
	}
	if got := tasWins.Load(); got != 1 {
		t.Errorf("test&set winners = %d, want exactly 1", got)
	}
	if got := casWins.Load(); got != 1 {
		t.Errorf("compare&swap winners = %d, want exactly 1", got)
	}
	// Every sticker after the first observed the same stuck value.
	if first, cur := stickyFirst.Load(), sticky.Read(0); first != 0 && first != cur {
		t.Errorf("sticky bit drifted: first observed %d, final %d", first, cur)
	}
	// The recorder saw every fetch&add op exactly once (reads excluded:
	// one Read above).
	if got := rec.Len(); got != tasks*opsPerTask+1 {
		t.Errorf("recorder holds %d ops, want %d", got, tasks*opsPerTask+1)
	}
}
