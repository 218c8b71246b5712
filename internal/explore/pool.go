// Package explore is the concurrency substrate shared by the exhaustive
// checkers: the shard-owned exploration engine (RunSharded, shard.go)
// with its disk tier (spill.go), and a plain work-stealing pool (Run).
//
// The valency checker explores configuration graphs on RunSharded; the
// pool fans independent jobs out across workers — hierarchy machine
// enumeration, the distributed worker's batches and the all-inputs
// vector sweep.  The pool is generic so tests can also drive live
// runtime objects through it for stress coverage.
package explore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stats are the counters a Run accumulates; callers derive throughput
// from Processed and Elapsed.
type Stats struct {
	// Workers is the number of workers the pool ran.
	Workers int
	// Processed counts frontier items handed to the callback.
	Processed int64
	// Steals counts successful steal operations between workers.
	Steals int64
	// PeakPending is the high-water mark of outstanding frontier items —
	// a proxy for frontier depth.
	PeakPending int64
	// Stopped reports whether the run was aborted via Ctx.Stop.
	Stopped bool
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Ctx is the per-worker handle passed to the Run callback.
type Ctx[T any] struct {
	p  *pool[T]
	id int
}

// Worker returns the worker index in [0, workers).
func (c *Ctx[T]) Worker() int { return c.id }

// Emit schedules a new frontier item.  It is safe to call only from
// within the callback that received this Ctx.
func (c *Ctx[T]) Emit(item T) {
	p := c.p
	pending := p.pending.Add(1)
	for {
		peak := p.peak.Load()
		if pending <= peak || p.peak.CompareAndSwap(peak, pending) {
			break
		}
	}
	d := &p.deques[c.id]
	d.mu.Lock()
	d.items = append(d.items, item)
	d.mu.Unlock()
}

// Stop aborts the run: workers exit without draining the frontier.
func (c *Ctx[T]) Stop() { c.p.stopped.Store(true) }

// pool is the shared state of one Run.
type pool[T any] struct {
	deques  []deque[T]
	pending atomic.Int64 // items enqueued but not yet fully processed
	peak    atomic.Int64
	steals  atomic.Int64
	done    atomic.Int64 // items fully processed
	stopped atomic.Bool
}

// deque is one worker's frontier.  The owner pushes and pops at the tail
// (depth-first locality); thieves take a batch from the head, which tends
// to hold the largest unexplored subtrees.
type deque[T any] struct {
	mu    sync.Mutex
	items []T
	_     [32]byte // avoid false sharing between adjacent deques
}

func (d *deque[T]) popTail() (item T, ok bool) {
	d.mu.Lock()
	if n := len(d.items); n > 0 {
		item, ok = d.items[n-1], true
		var zero T
		d.items[n-1] = zero
		d.items = d.items[:n-1]
	}
	d.mu.Unlock()
	return item, ok
}

// stealHead moves up to half of the victim's items (at least one) into
// the thief's deque and returns one of them to process immediately.
func (p *pool[T]) stealHead(victim, thief int) (item T, ok bool) {
	v := &p.deques[victim]
	v.mu.Lock()
	n := len(v.items)
	if n == 0 {
		v.mu.Unlock()
		return item, false
	}
	k := (n + 1) / 2
	batch := append([]T(nil), v.items[:k]...)
	rest := v.items[k:]
	copy(v.items, rest)
	for i := n - k; i < n; i++ {
		var zero T
		v.items[i] = zero
	}
	v.items = v.items[:n-k]
	v.mu.Unlock()

	item = batch[0]
	if len(batch) > 1 {
		t := &p.deques[thief]
		t.mu.Lock()
		t.items = append(t.items, batch[1:]...)
		t.mu.Unlock()
	}
	p.steals.Add(1)
	return item, true
}

// Run processes roots and everything they transitively Emit with the
// given number of workers, returning when the frontier is exhausted or a
// worker calls Stop.  Each item is handed to fn exactly once; fn may run
// concurrently with itself and must synchronize access to shared state.
//
// workers < 1 is treated as runtime.GOMAXPROCS(0).
func Run[T any](workers int, roots []T, fn func(item T, ctx *Ctx[T])) Stats {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	p := &pool[T]{deques: make([]deque[T], workers)}
	p.pending.Store(int64(len(roots)))
	p.peak.Store(int64(len(roots)))
	for i, r := range roots {
		d := &p.deques[i%workers]
		d.items = append(d.items, r)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p.worker(id, workers, fn)
		}(w)
	}
	wg.Wait()

	return Stats{
		Workers:     workers,
		Processed:   p.done.Load(),
		Steals:      p.steals.Load(),
		PeakPending: p.peak.Load(),
		Stopped:     p.stopped.Load(),
		Elapsed:     time.Since(start),
	}
}

func (p *pool[T]) worker(id, workers int, fn func(item T, ctx *Ctx[T])) {
	ctx := &Ctx[T]{p: p, id: id}
	idle := 0
	for {
		if p.stopped.Load() {
			return
		}
		item, ok := p.deques[id].popTail()
		if !ok {
			for off := 1; off < workers && !ok; off++ {
				item, ok = p.stealHead((id+off)%workers, id)
			}
		}
		if !ok {
			if p.pending.Load() == 0 {
				return
			}
			// Another worker is still expanding an item that may emit
			// successors; back off briefly and retry.
			idle++
			if idle > 16 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		fn(item, ctx)
		p.done.Add(1)
		p.pending.Add(-1)
	}
}
