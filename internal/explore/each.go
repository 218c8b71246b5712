// Package explore is the concurrency substrate shared by the exhaustive
// checkers: the shard-owned exploration engine (RunSharded, shard.go)
// with its disk tier (spill.go), and an index fan-out (Each) for fixed
// lists of independent jobs.
//
// The valency checker explores configuration graphs on RunSharded; Each
// fans out the jobs whose list never grows — the all-inputs vector
// sweep, the hierarchy search's machine subtrees and the distributed
// worker's batch items.
package explore

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(worker, i) exactly once for every index i in [0, n),
// spread over min(workers, n) goroutines; workers < 1 means
// runtime.GOMAXPROCS(0).  worker in [0, min(workers, n)) names the
// calling goroutine, so callers can keep per-worker scratch without
// locks.  fn may run concurrently with itself.
//
// Indices are claimed from one atomic counter in increasing order, and
// every claimed index runs.  A false return stops further claims: calls
// already claimed finish and Each returns.  So after a stop the indices
// that ran are exactly [0, m) for some m, and every index below a
// stopping one ran.  A panic in fn is not recovered.
func Each(workers, n int, fn func(worker, i int) bool) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if !fn(w, i) {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}
