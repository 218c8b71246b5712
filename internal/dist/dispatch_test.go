package dist

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"randsync/internal/valency"
)

// TestPumpBatchShape drives pump on a coordinator with a synthetic
// frontier and two fake workers: a batch mixes items of every shard,
// holds at most batchSize of them, the frontier stays exactly
// accounted for (queued plus in flight), and a dead worker's in-flight
// items return to the queue for the survivor.
func TestPumpBatchShape(t *testing.T) {
	const S, total = 4, 300
	co, err := newCoord(Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}, Options{Shards: S})
	if err != nil {
		t.Fatal(err)
	}
	co.vec = newVectorState(co.vectorInputs(0), S)
	for gid := int64(0); gid < total; gid++ {
		co.vec.queue = append(co.vec.queue, item{gid: gid}) // shard gid % S
	}
	for slot := 0; slot < 2; slot++ {
		conn, peer := net.Pipe()
		defer peer.Close()
		co.workers = append(co.workers, &wconn{slot: slot, conn: conn, out: make(chan outFrame, 64)})
	}

	// sent drains one worker's outbound queue and checks each batch
	// frame against the coordinator's in-flight record.
	sent := func(w *wconn) (batches, items int) {
		t.Helper()
		for len(w.out) > 0 {
			f := <-w.out
			bm, err := decodeBatch(f.payload)
			if err != nil || f.typ != msgBatch {
				t.Fatalf("worker %d got frame %d: %v", w.slot, f.typ, err)
			}
			if n := len(bm.Items); n == 0 || n > batchSize {
				t.Fatalf("batch of %d items, want 1..%d", n, batchSize)
			}
			shards := make(map[int]bool)
			for _, it := range bm.Items {
				shards[gidShard(it.gid, S)] = true
			}
			if len(bm.Items) >= S && len(shards) != S {
				t.Fatalf("batch of %d items spans %d of %d shards", len(bm.Items), len(shards), S)
			}
			if b := co.inflight[bm.ID]; b == nil || b.worker != w.slot || len(b.items) != len(bm.Items) {
				t.Fatalf("batch %d on the wire does not match the in-flight record", bm.ID)
			}
			batches++
			items += len(bm.Items)
		}
		return batches, items
	}
	accounted := func() {
		t.Helper()
		seen := make(map[int64]bool)
		count := func(items []item) {
			for _, it := range items {
				if seen[it.gid] {
					t.Fatalf("gid %d both queued and in flight", it.gid)
				}
				seen[it.gid] = true
			}
		}
		count(co.vec.queue)
		for _, b := range co.inflight {
			count(b.items)
		}
		if len(seen) != total {
			t.Fatalf("frontier holds %d of %d items", len(seen), total)
		}
	}

	co.pump()
	b0, n0 := sent(co.workers[0])
	b1, n1 := sent(co.workers[1])
	// Round-robin: 128 to each worker, then the last 44 to worker 0.
	if b0 != 2 || n0 != batchSize+total-2*batchSize || b1 != 1 || n1 != batchSize {
		t.Fatalf("dispatch worker0 %d batches/%d items, worker1 %d/%d", b0, n0, b1, n1)
	}
	if len(co.vec.queue) != 0 {
		t.Fatalf("%d items left queued with capacity free", len(co.vec.queue))
	}
	accounted()

	co.markDead(co.workers[0], nil)
	if len(co.vec.queue) != n0 || co.workers[0].inflight != 0 {
		t.Fatalf("dead worker's %d in-flight items not re-queued: queue %d", n0, len(co.vec.queue))
	}
	accounted()

	co.pump()
	if b, n := sent(co.workers[1]); b != 1 || n != batchSize {
		t.Fatalf("survivor got %d batches/%d items, want 1/%d", b, n, batchSize)
	}
	if co.workers[1].inflight != maxInflight || len(co.vec.queue) != n0-batchSize {
		t.Fatalf("survivor inflight %d, queue %d", co.workers[1].inflight, len(co.vec.queue))
	}
	accounted()
}

// TestCheckpointEncodingDeterministic: one coordinator state has one
// checkpoint encoding.  Decision sets and in-flight batches live in
// maps; ranging over them wrote a different byte string on every call
// and handed a resume its frontier in a random order.  The state is
// TestPumpBatchShape's — two fake workers, three batches in flight —
// with decisions in the aggregate and in the vector, and its snapshot
// must also survive a decode: the restored state, with every in-flight
// item flattened back into the queue, re-encodes to the same bytes.
func TestCheckpointEncodingDeterministic(t *testing.T) {
	const S, total = 4, 300
	job := Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}
	co, err := newCoord(job, Options{Shards: S})
	if err != nil {
		t.Fatal(err)
	}
	co.vec = newVectorState(co.vectorInputs(0), S)
	for gid := int64(0); gid < total; gid++ {
		co.vec.queue = append(co.vec.queue, item{gid: gid, sched: []byte{byte(gid), byte(gid >> 8)}})
	}
	for slot := 0; slot < 2; slot++ {
		conn, peer := net.Pipe()
		defer peer.Close()
		co.workers = append(co.workers, &wconn{slot: slot, conn: conn, out: make(chan outFrame, 64)})
	}
	co.pump()
	if len(co.inflight) < 2 {
		t.Fatalf("%d batches in flight, want at least 2", len(co.inflight))
	}
	for _, v := range []int64{9, -3, 0, 4} {
		co.agg.Decisions[v] = true
		co.vec.decisions[-v] = true
	}

	want := co.encodeCheckpoint()
	for i := 0; i < 16; i++ {
		if got := co.encodeCheckpoint(); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d of one state differs from the first", i+1)
		}
	}

	restored, err := newCoord(job, Options{Shards: S})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.decodeCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	if got := restored.encodeCheckpoint(); !bytes.Equal(got, want) {
		t.Fatal("a decoded checkpoint re-encodes to different bytes")
	}
}

// benchJob is the benchmark's reference job: the paper's three-counter
// walk, counter-walk n = 3 on inputs (0, 1, 0), 28,499 configurations,
// with each worker checking a batch on one goroutine.
func benchJob() (Job, Options) {
	return Job{Spec: ProtoSpec{Name: "counter-walk", N: 3}, Inputs: []int64{0, 1, 0}},
		Options{Shards: 16, Valency: valency.Options{Workers: 1}}
}

// TestLoopbackBatchesPerJob pins dispatch by free worker: the reference
// job fits in about 350 full batches.  Dispatching each shard's queue
// as its own batch took about 8,200.
func TestLoopbackBatchesPerJob(t *testing.T) {
	job, opts := benchJob()
	rep, err := Loopback(2, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Configs != 28499 {
		t.Fatalf("configs = %d, want 28499", rep.Configs)
	}
	if b := rep.Stats.Batches; b > 1000 {
		t.Fatalf("%d batches for %d configurations, want at most 1000", b, rep.Configs)
	}
}

// TestReportDoesNotPinCoordinator: a held report must not keep its
// coordinator — shard mirrors, edges, batches — reachable.  Eight
// reports of the reference job stay under 1 MiB of heap each; one
// that pinned its coordinator retained about 8.6 MiB.
func TestReportDoesNotPinCoordinator(t *testing.T) {
	const runs = 8
	job, opts := benchJob()
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	reps := make([]*valency.Report, runs)
	for i := range reps {
		rep, err := Loopback(2, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	// A coordinator's connection readers exit just after Loopback
	// returns; give them a moment before judging what stays reachable.
	var per int64
	for try := 0; try < 50; try++ {
		if per = (heap() - before) / runs; per < 1<<20 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if per >= 1<<20 {
		t.Errorf("each held report retains %.2f MiB of heap, want < 1 MiB", float64(per)/(1<<20))
	}
	runtime.KeepAlive(reps)
}
