package explore

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachHandsOutEveryIndexOnce: every index in [0, n) reaches fn
// exactly once, with a worker id in [0, min(workers, n)), for every
// worker count (workers < 1 meaning GOMAXPROCS) and list length.
func TestEachHandsOutEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 1, 2, 8} {
		for _, n := range []int{0, 1, 3, 1000} {
			limit := workers
			if limit < 1 {
				limit = runtime.GOMAXPROCS(0)
			}
			limit = min(limit, n)
			calls := make([]atomic.Int32, n)
			var badWorker atomic.Int64
			badWorker.Store(-1)
			Each(workers, n, func(w, i int) bool {
				if w < 0 || w >= limit {
					badWorker.Store(int64(w))
				}
				calls[i].Add(1)
				return true
			})
			if w := badWorker.Load(); w != -1 {
				t.Fatalf("workers=%d n=%d: worker id %d outside [0, %d)", workers, n, w, limit)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d handed out %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestEachStop: a false return stops further claims.  When every call
// stops, each worker makes at most one call, and the indices that ran
// are a prefix [0, m); when only index k stops, every index up to k ran
// exactly once — the prefix CheckAllInputs' in-order fold relies on.
func TestEachStop(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 1000
		calls := make([]atomic.Int32, n)
		var total atomic.Int64
		Each(workers, n, func(_, i int) bool {
			calls[i].Add(1)
			total.Add(1)
			return false
		})
		m := int(total.Load())
		if m < 1 || m > workers {
			t.Fatalf("workers=%d: %d calls after every call stopped, want 1..%d", workers, m, workers)
		}
		for i := range calls {
			if got := calls[i].Load(); got > 1 || (got == 1) != (i < m) {
				t.Fatalf("workers=%d: index %d ran %d times, want the prefix [0, %d) once each", workers, i, got, m)
			}
		}

		const k = 300
		calls = make([]atomic.Int32, n)
		Each(workers, n, func(_, i int) bool {
			calls[i].Add(1)
			return i != k
		})
		ran := 0
		for i := range calls {
			c := calls[i].Load()
			if c > 1 || (i <= k && c != 1) {
				t.Fatalf("workers=%d stop at %d: index %d ran %d times", workers, k, i, c)
			}
			if c == 1 {
				if ran != i {
					t.Fatalf("workers=%d stop at %d: index %d ran after a gap at %d", workers, k, i, ran)
				}
				ran++
			}
		}
		if workers == 1 && ran != k+1 {
			t.Fatalf("serial stop at %d: %d indices ran, want %d", k, ran, k+1)
		}
	}
}
