package explore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// nodeFP fingerprints a synthetic graph node: FNV-1a over its key, so
// ownership spreads across shards the way real config fingerprints do.
func nodeFP(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// nodeKey renders a node id as its canonical key bytes.
func nodeKey(n int) []byte { return []byte(fmt.Sprintf("n%d", n)) }

// graphSucc is the synthetic cyclic graph shared by the sharded tests:
// plenty of shared successors and cycles, the exact shape the valency
// engine produces.
func graphSucc(n, size int) [2]int {
	return [2]int{(n*2 + 1) % size, (n*3 + 2) % size}
}

// serialReach is the reference BFS over graphSucc.
func serialReach(size int) map[int]bool {
	seen := map[int]bool{0: true}
	frontier := []int{0}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, s := range graphSucc(n, size) {
			if !seen[s] {
				seen[s] = true
				frontier = append(frontier, s)
			}
		}
	}
	return seen
}

// runShardedGraph explores graphSucc from node 0 on the sharded engine.
func runShardedGraph(workers, size int, opts ShardedOptions[int]) (ShardedResult, *atomic.Int64) {
	var visits atomic.Int64
	res := RunSharded(workers, opts,
		[]ShardSeed[int]{{FP: nodeFP(nodeKey(0)), Key: nodeKey(0), Val: 0}},
		func(ctx *ShardCtx[int], id int64, n int) {
			visits.Add(1)
			for _, s := range graphSucc(n, size) {
				succ := s
				ctx.Emit(nodeFP(nodeKey(s)), nodeKey(s), id, func() int { return succ })
			}
		})
	return res, &visits
}

// TestRunShardedMatchesSerialReach: for several worker counts and batch
// sizes, the sharded engine admits exactly the serially-reachable node
// set — each node expanded exactly once — and its census sums match.
func TestRunShardedMatchesSerialReach(t *testing.T) {
	const size = 50000
	want := int64(len(serialReach(size)))
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, batch := range []int{0, 1, 7} {
			res, visits := runShardedGraph(workers, size, ShardedOptions[int]{BatchSize: batch})
			st := res.Stats
			if st.Admitted != want {
				t.Fatalf("workers=%d batch=%d: admitted %d nodes, want %d", workers, batch, st.Admitted, want)
			}
			if visits.Load() != want || st.Processed != want {
				t.Fatalf("workers=%d batch=%d: visits=%d processed=%d, want %d",
					workers, batch, visits.Load(), st.Processed, want)
			}
			if st.Census.Keys != want {
				t.Fatalf("workers=%d batch=%d: census keys %d, want %d", workers, batch, st.Census.Keys, want)
			}
			if st.Census.Stripes != workers {
				t.Fatalf("workers=%d: census stripes %d", workers, st.Census.Stripes)
			}
			// Every emission logs exactly one edge (fresh or duplicate).
			if got := int64(res.Edges.Len()); got != 2*want {
				t.Fatalf("workers=%d batch=%d: %d edges, want %d", workers, batch, got, 2*want)
			}
			if st.Stopped || st.Incomplete {
				t.Fatalf("workers=%d batch=%d: clean run reported stopped=%v incomplete=%v",
					workers, batch, st.Stopped, st.Incomplete)
			}
			if workers > 1 && st.HandoffItems == 0 {
				t.Fatalf("workers=%d: no cross-shard hand-offs on a fingerprint-spread graph", workers)
			}
		}
	}
}

// TestRunShardedEdgesFindCycles: the chunked edge log must expose the
// graph's cycles to HasCycle for any worker count (duplicate admissions
// log the back edges).
func TestRunShardedEdgesFindCycles(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, _ := runShardedGraph(workers, 300, ShardedOptions[int]{})
		if !HasCycle(int(res.Stats.Admitted), res.Edges) {
			t.Fatalf("workers=%d: cyclic graph reported acyclic", workers)
		}
	}
	// A pure tree must stay acyclic.
	var res ShardedResult
	res = RunSharded(4, ShardedOptions[int]{},
		[]ShardSeed[int]{{FP: nodeFP(nodeKey(1)), Key: nodeKey(1), Val: 1}},
		func(ctx *ShardCtx[int], id int64, n int) {
			for _, s := range []int{2 * n, 2*n + 1} {
				if s > 2048 {
					continue
				}
				succ := s
				ctx.Emit(nodeFP(nodeKey(s)), nodeKey(s), id, func() int { return succ })
			}
		})
	if HasCycle(int(res.Stats.Admitted), res.Edges) {
		t.Fatal("binary tree reported cyclic")
	}
}

// TestRunShardedStop: Ctx.Stop aborts the run without draining.
func TestRunShardedStop(t *testing.T) {
	var processed atomic.Int64
	res := RunSharded(4, ShardedOptions[int]{},
		[]ShardSeed[int]{{FP: nodeFP(nodeKey(0)), Key: nodeKey(0), Val: 0}},
		func(ctx *ShardCtx[int], id int64, n int) {
			if processed.Add(1) > 100 {
				ctx.Stop()
				return
			}
			for _, s := range []int{n + 1, n + 2, n + 100000} {
				succ := s
				ctx.Emit(nodeFP(nodeKey(s)), nodeKey(s), id, func() int { return succ })
			}
		})
	if !res.Stats.Stopped {
		t.Fatal("run did not report Stopped after Ctx.Stop")
	}
}

// TestRunShardedBudget: the MaxItems cap truncates the run and marks it
// incomplete.  Workers check the stop flag before every admission, so
// past the cap-crossing admission each other worker lands at most one
// more: the run admits at most MaxItems + workers keys, however deep the
// inboxes are when the cap is hit.
func TestRunShardedBudget(t *testing.T) {
	const workers, maxItems = 3, 500
	res, _ := runShardedGraph(workers, 50000, ShardedOptions[int]{MaxItems: maxItems})
	st := res.Stats
	if !st.Incomplete || !st.Stopped {
		t.Fatalf("budgeted run: incomplete=%v stopped=%v, want true/true", st.Incomplete, st.Stopped)
	}
	if st.Admitted <= 0 || st.Admitted > maxItems+workers {
		t.Fatalf("budgeted run admitted %d nodes against cap %d + %d workers", st.Admitted, maxItems, workers)
	}
}

// TestRunShardedFingerprintCollision: distinct keys claiming the same
// fingerprint must all be admitted with distinct ids (full-key overflow),
// dedup on re-emission, and show up in the census collision counter.
func TestRunShardedFingerprintCollision(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta"}
	const fp = uint64(42) // every key claims one fingerprint → one shard
	res := RunSharded(3, ShardedOptions[string]{},
		[]ShardSeed[string]{{FP: fp, Key: []byte("root"), Val: "root"}},
		func(ctx *ShardCtx[string], id int64, v string) {
			if v != "root" {
				return
			}
			for round := 0; round < 2; round++ { // second round = pure dedup
				for _, k := range keys {
					kk := k
					ctx.Emit(fp, []byte(k), id, func() string { return kk })
				}
			}
		})
	st := res.Stats
	if want := int64(1 + len(keys)); st.Admitted != want {
		t.Fatalf("admitted %d, want %d", st.Admitted, want)
	}
	if st.Census.Collisions != int64(len(keys)) {
		t.Fatalf("census collisions %d, want %d (root claims the fp first)", st.Census.Collisions, len(keys))
	}
	if st.DedupHits != int64(len(keys)) {
		t.Fatalf("dedup hits %d, want %d", st.DedupHits, len(keys))
	}
	if got := int64(res.Edges.Len()); got != 2*int64(len(keys)) {
		t.Fatalf("%d edges, want %d", got, 2*len(keys))
	}
}

// recyclable is the stress payload: a state flag catching double-recycle
// and use-after-recycle, the way a corrupted arena would manifest.
type recyclable struct {
	node  int
	state atomic.Int32 // 0 = live, 1 = recycled
}

// TestRunShardedRecycleStress hammers the hand-off queues, frontier
// stealing and arena recycling with randomized worker counts and a tiny
// batch size (maximum cross-shard traffic); run under -race this is the
// engine's data-race gauntlet.  Every materialized payload must be
// recycled exactly once, and a payload must still carry its node when
// expanded (no aliasing between a recycled slot and a queued item).
func TestRunShardedRecycleStress(t *testing.T) {
	const size = 20000
	want := int64(len(serialReach(size)))
	rng := rand.New(rand.NewSource(1))
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		workers := 1 + rng.Intn(8)
		batch := 1 + rng.Intn(5)
		var made, recycled atomic.Int64
		var freeMu sync.Mutex
		free := make([]*recyclable, 0, 64) // deliberately shared: cross-worker reuse
		take := func() *recyclable {
			freeMu.Lock()
			defer freeMu.Unlock()
			if n := len(free); n > 0 {
				p := free[n-1]
				free = free[:n-1]
				if !p.state.CompareAndSwap(1, 0) {
					t.Error("arena handed out a live payload")
				}
				return p
			}
			return &recyclable{}
		}
		opts := ShardedOptions[*recyclable]{
			BatchSize: batch,
			Recycle: func(_ int, p *recyclable) {
				recycled.Add(1)
				if !p.state.CompareAndSwap(0, 1) {
					t.Error("payload recycled twice")
				}
				freeMu.Lock()
				free = append(free, p)
				freeMu.Unlock()
			},
		}
		root := &recyclable{node: 0}
		res := RunSharded(workers, opts,
			[]ShardSeed[*recyclable]{{FP: nodeFP(nodeKey(0)), Key: nodeKey(0), Val: root}},
			func(ctx *ShardCtx[*recyclable], id int64, p *recyclable) {
				if p.state.Load() != 0 {
					t.Error("expanded a recycled payload")
				}
				n := p.node
				for _, s := range graphSucc(n, size) {
					succ := s
					ctx.Emit(nodeFP(nodeKey(s)), nodeKey(s), id, func() *recyclable {
						q := take()
						q.node = succ
						made.Add(1)
						return q
					})
				}
			})
		if res.Stats.Admitted != want {
			t.Fatalf("round %d (workers=%d batch=%d): admitted %d, want %d",
				round, workers, batch, res.Stats.Admitted, want)
		}
		// Exactly-once recycling: every materialized payload plus the root.
		if recycled.Load() != made.Load()+1 {
			t.Fatalf("round %d: made %d payloads (+1 root), recycled %d",
				round, made.Load(), recycled.Load())
		}
		if workers > 1 && res.Stats.HandoffBatches == 0 {
			t.Fatalf("round %d: workers=%d but no hand-off batches", round, workers)
		}
	}
}

// TestQuickShardedOrderIndependence (testing/quick): whatever the worker
// count and batch size — hence whatever hand-off batching boundaries and
// steal interleavings a run happens to take — the admitted set of a
// pseudo-random graph equals the serial reachability computation.
func TestQuickShardedOrderIndependence(t *testing.T) {
	f := func(seed int64, w, b uint8) bool {
		size := 500 + int(uint16(seed)%2000)
		workers := 1 + int(w%8)
		batch := int(b % 17) // 0 selects the default
		res, _ := runShardedGraph(workers, size, ShardedOptions[int]{BatchSize: batch})
		return res.Stats.Admitted == int64(len(serialReach(size))) &&
			!res.Stats.Stopped && !res.Stats.Incomplete
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("hand-off batching changed the admitted set: %v", err)
	}
}

// FuzzShardBatch round-trips key batches through the per-worker batch
// arena: items appended to a recycled batch must read back exactly, and
// keys interned from a batch must survive the batch's reset and reuse —
// a reused arena slot corrupting a still-referenced key is the aliasing
// bug this hunts.
func FuzzShardBatch(f *testing.F) {
	f.Add([]byte("alpha\nbeta\ngamma"), []byte("delta\nepsilon"))
	f.Add([]byte(""), []byte("x"))
	f.Add(bytes.Repeat([]byte("k\n"), 70), []byte("longer-key-material\nshort"))
	f.Fuzz(func(t *testing.T, gen1, gen2 []byte) {
		split := func(raw []byte) [][]byte {
			parts := bytes.Split(raw, []byte("\n"))
			if len(parts) > 200 {
				parts = parts[:200]
			}
			return parts
		}
		keys1, keys2 := split(gen1), split(gen2)

		w := &shardWorker[int]{}
		b := w.getBatch()
		for i, k := range keys1 {
			b.add(uint64(i), k, int64(i), i)
		}
		if len(b.items) != len(keys1) {
			t.Fatalf("batch holds %d items, appended %d", len(b.items), len(keys1))
		}
		// First read-back, and interning (what admit retains) of generation 1.
		interned := make([]string, len(keys1))
		for i, k := range keys1 {
			got := b.key(i)
			if !bytes.Equal(got, k) {
				t.Fatalf("item %d: key %q read back as %q", i, k, got)
			}
			if b.items[i].fp != uint64(i) || b.items[i].parent != int64(i) || b.items[i].val != i {
				t.Fatalf("item %d: payload fields corrupted: %+v", i, b.items[i])
			}
			interned[i] = string(got)
		}

		// Recycle through the arena and refill with generation 2: the
		// recycled slot must serve the new keys verbatim...
		w.putBatch(b)
		b2 := w.getBatch()
		if b2 != b {
			t.Fatal("arena did not recycle the batch")
		}
		if len(b2.items) != 0 || len(b2.keys) != 0 {
			t.Fatal("recycled batch not reset")
		}
		for i, k := range keys2 {
			b2.add(^uint64(i), k, -1, -i)
		}
		for i, k := range keys2 {
			if got := b2.key(i); !bytes.Equal(got, k) {
				t.Fatalf("gen2 item %d: key %q read back as %q", i, k, got)
			}
		}
		// ...and generation 1's interned keys must be untouched by the reuse.
		for i, k := range keys1 {
			if interned[i] != string(k) {
				t.Fatalf("interned key %d corrupted after arena reuse: %q → %q", i, k, interned[i])
			}
		}
	})
}

// TestRunShardedDuplicateSeeds: duplicate roots dedup like emissions and
// the surplus payloads are recycled.
func TestRunShardedDuplicateSeeds(t *testing.T) {
	var recycled atomic.Int64
	seeds := []ShardSeed[int]{
		{FP: nodeFP(nodeKey(0)), Key: nodeKey(0), Val: 0},
		{FP: nodeFP(nodeKey(0)), Key: nodeKey(0), Val: 0},
		{FP: nodeFP(nodeKey(7)), Key: nodeKey(7), Val: 7},
	}
	res := RunSharded(2, ShardedOptions[int]{
		Recycle: func(_ int, _ int) { recycled.Add(1) },
	}, seeds, func(ctx *ShardCtx[int], id int64, n int) {})
	if res.Stats.Admitted != 2 {
		t.Fatalf("admitted %d seeds, want 2", res.Stats.Admitted)
	}
	if res.Stats.Processed != 2 {
		t.Fatalf("processed %d seeds, want 2", res.Stats.Processed)
	}
	// One duplicate seed + two expanded tasks.
	if recycled.Load() != 3 {
		t.Fatalf("recycled %d payloads, want 3", recycled.Load())
	}
}

// TestRunShardedWorkerPanic: a panicking expand callback must not kill
// the process — the first panic aborts the run, the other workers
// drain, and the recovered value plus stack surface as Result.Err.
func TestRunShardedWorkerPanic(t *testing.T) {
	var processed atomic.Int64
	res := RunSharded(4, ShardedOptions[int]{},
		[]ShardSeed[int]{{FP: nodeFP(nodeKey(0)), Key: nodeKey(0), Val: 0}},
		func(ctx *ShardCtx[int], id int64, n int) {
			if processed.Add(1) == 50 {
				panic("protocol exploded at step 50")
			}
			for _, s := range []int{n + 1, n + 2, n + 100000} {
				succ := s
				ctx.Emit(nodeFP(nodeKey(s)), nodeKey(s), id, func() int { return succ })
			}
		})
	pe, ok := res.Err.(*PanicError)
	if !ok {
		t.Fatalf("Result.Err = %v (%T), want *PanicError", res.Err, res.Err)
	}
	if pe.Value != "protocol exploded at step 50" {
		t.Fatalf("panic value %q lost in transit", pe.Value)
	}
	if !strings.Contains(pe.Stack, "TestRunShardedWorkerPanic") {
		t.Fatalf("panic stack does not name the panicking frame:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "worker panic") {
		t.Fatalf("Error() = %q", pe.Error())
	}
	if !res.Stats.Stopped || !res.Stats.Incomplete {
		t.Fatalf("panicking run: stopped=%v incomplete=%v, want true/true",
			res.Stats.Stopped, res.Stats.Incomplete)
	}
}
