package explore

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunProcessesEveryItemOnce: a fan-out tree of emitted items is
// processed exactly once per item, for several worker counts.
func TestRunProcessesEveryItemOnce(t *testing.T) {
	const depth = 6
	const fanout = 4
	// Items are path-encoded ints; total = (fanout^(depth+1)-1)/(fanout-1).
	want := 0
	for d, p := 0, 1; d <= depth; d++ {
		want += p
		p *= fanout
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		seen := make(map[[2]int]int)
		stats := Run(workers, [][2]int{{0, 0}}, func(item [2]int, ctx *Ctx[[2]int]) {
			mu.Lock()
			seen[item]++
			mu.Unlock()
			if item[0] < depth {
				for k := 0; k < fanout; k++ {
					ctx.Emit([2]int{item[0] + 1, item[1]*fanout + k})
				}
			}
		})
		if len(seen) != want {
			t.Fatalf("workers=%d: processed %d distinct items, want %d", workers, len(seen), want)
		}
		for item, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: item %v processed %d times", workers, item, n)
			}
		}
		if stats.Processed != int64(want) {
			t.Fatalf("workers=%d: stats.Processed = %d, want %d", workers, stats.Processed, want)
		}
		if stats.Stopped {
			t.Fatalf("workers=%d: run reported stopped", workers)
		}
	}
}

// TestRunStop: Stop aborts the run without draining the frontier.
func TestRunStop(t *testing.T) {
	var processed atomic.Int64
	stats := Run(4, []int{0}, func(item int, ctx *Ctx[int]) {
		if n := processed.Add(1); n > 100 {
			ctx.Stop()
			return
		}
		ctx.Emit(item + 1)
		ctx.Emit(item + 2)
	})
	if !stats.Stopped {
		t.Fatal("run did not report Stopped after Ctx.Stop")
	}
	// The frontier grows by one net item per step; an unstopped run would
	// never terminate, so finishing at all proves the abort works.  The
	// overshoot past 100 is bounded by in-flight workers.
	if got := processed.Load(); got > 200 {
		t.Fatalf("processed %d items after stop at ~100", got)
	}
}

// TestRunWorkStealing: a single root that fans out must end up processed
// by more than one worker (stealing spreads the frontier).
func TestRunWorkStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent; skipped in -short mode")
	}
	var byWorker [8]atomic.Int64
	stats := Run(8, []int{0}, func(item int, ctx *Ctx[int]) {
		byWorker[ctx.Worker()].Add(1)
		if item < 4096 {
			ctx.Emit(2*item + 1)
			ctx.Emit(2*item + 2)
		}
		// Burn a little time so other workers get a chance to steal.
		s := 0
		for i := 0; i < 500; i++ {
			s += i
		}
		_ = s
	})
	active := 0
	for i := range byWorker {
		if byWorker[i].Load() > 0 {
			active++
		}
	}
	// On a single-core box the scheduler may still serialize everything,
	// so only require that stealing is possible, not a precise spread.
	if active > 1 && stats.Steals == 0 {
		t.Fatalf("%d workers active but zero steals recorded", active)
	}
	t.Logf("workers active: %d, steals: %d, peak frontier: %d", active, stats.Steals, stats.PeakPending)
}

// TestRunPoolWithSetGraph drives the pool on a synthetic cyclic graph,
// deduplicating through a shared visited set as a parallel explorer
// would, and checks every node is visited exactly once despite
// re-derivations.
func TestRunPoolWithSetGraph(t *testing.T) {
	// Nodes 0..N-1; edges i → (i*2+1)%N, (i*3+2)%N: plenty of shared
	// successors and cycles.
	const N = 50000
	var mu sync.Mutex
	seen := map[int]bool{0: true}
	var visits atomic.Int64
	Run(8, []int{0}, func(n int, ctx *Ctx[int]) {
		visits.Add(1)
		for _, succ := range []int{(n*2 + 1) % N, (n*3 + 2) % N} {
			mu.Lock()
			fresh := !seen[succ]
			seen[succ] = true
			mu.Unlock()
			if fresh {
				ctx.Emit(succ)
			}
		}
	})
	// Every node reachable from 0 is visited once; the visited count and
	// set size must agree.
	if got := visits.Load(); got != int64(len(seen)) {
		t.Fatalf("visited %d nodes but set holds %d", got, len(seen))
	}
	if len(seen) < 2 {
		t.Fatalf("trivial reachability: %d nodes", len(seen))
	}
}
