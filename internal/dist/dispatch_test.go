package dist

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// TestPumpBatchShape drives pump on a coordinator with a synthetic
// frontier and two fake workers: a batch holds at most batchSize
// items, the frontier stays exactly accounted for (queued plus in
// flight), and a dead worker's in-flight items return to the queue for
// the survivor.
func TestPumpBatchShape(t *testing.T) {
	const total = 300
	co, err := newCoord(Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	co.vec = newVectorState(co.vectorInputs(0))
	for id := int64(0); id < total; id++ {
		co.vec.queue = append(co.vec.queue, item{id: id})
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
				if seen[it.id] {
					t.Fatalf("id %d both queued and in flight", it.id)
				}
				seen[it.id] = true
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
// TestPumpBatchShape's — two fake workers, three batches in flight,
// every item an admitted key — with edges, and decisions in the
// aggregate and in the vector, and its snapshot must also survive a
// decode: the restored state, with every in-flight item flattened back
// into the queue, re-encodes to the same bytes.
func TestCheckpointEncodingDeterministic(t *testing.T) {
	const total = 300
	job := Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}
	co, err := newCoord(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	co.vec = newVectorState(co.vectorInputs(0))
	for i := 0; i < total; i++ {
		sched := []byte{byte(i), byte(i >> 8)}
		id, _ := co.admit(sched)
		co.vec.queue = append(co.vec.queue, item{id: id, sched: sched})
		co.vec.edges = append(co.vec.edges, explore.Edge{From: id / 2, To: id})
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

	want := co.appendCheckpoint(nil)
	for i := 0; i < 16; i++ {
		if got := co.appendCheckpoint(nil); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d of one state differs from the first", i+1)
		}
	}

	restored, err := newCoord(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := frame.NewReader(want)
	if err := restored.decodeCheckpoint(r); err != nil || r.Err() != nil {
		t.Fatal(err, r.Err())
	}
	if got := restored.appendCheckpoint(nil); !bytes.Equal(got, want) {
		t.Fatal("a decoded checkpoint re-encodes to different bytes")
	}
}

// benchJob is the benchmark's reference job: the paper's three-counter
// walk, counter-walk n = 3 on inputs (0, 1, 0), 28,499 configurations,
// with each worker checking a batch on one goroutine.
func benchJob() (Job, Options) {
	return Job{Spec: ProtoSpec{Name: "counter-walk", N: 3}, Inputs: []int64{0, 1, 0}},
		Options{Valency: valency.Options{Workers: 1}}
}

// TestLoopbackBatchesPerJob pins dispatch by free worker: the reference
// job fits in about 350 full batches.  Dispatching each fingerprint
// shard's queue as its own batch took about 8,200.
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
// coordinator — visited set, edges, batches — reachable.  Eight
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

// TestAdmissionIDs pins the id space: a configuration's id is its
// admission index, so one vector's ids are exactly 0..Configs-1, a
// repeated key keeps its first id, and the key walk a checkpoint
// writes lists the keys in id order.
func TestAdmissionIDs(t *testing.T) {
	co, err := newCoord(Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	co.vec = newVectorState(co.vectorInputs(0))
	co.seedInitial()
	if q := co.vec.queue; len(q) != 1 || q[0].id != 0 {
		t.Fatalf("initial frontier %+v, want the one item with id 0", q)
	}
	keys := []string{"a", "b", "a", "c", "b", "d"}
	wantTo := []int64{1, 2, 1, 3, 2, 4}
	var dm doneMsg
	for _, k := range keys {
		dm.Emits = append(dm.Emits, emit{from: 0, key: []byte(k)})
	}
	co.applyDone(dm)
	for i, e := range co.vec.edges {
		if e != (explore.Edge{From: 0, To: wantTo[i]}) {
			t.Fatalf("edge %d = %+v, want 0→%d", i, e, wantTo[i])
		}
	}
	for i, it := range co.vec.queue {
		if it.id != int64(i) {
			t.Fatalf("frontier item %d has id %d: ids are not admission order", i, it.id)
		}
	}
	rep := co.vectorReport()
	if rep.Configs != 5 || rep.Stats.DedupHits != 2 {
		t.Fatalf("report: %d configs, %d dedup hits; want 5, 2", rep.Configs, rep.Stats.DedupHits)
	}
	var walked []string
	co.vec.keys.Keys(func(k []byte) { walked = append(walked, string(k)) })
	if len(walked) != 5 || walked[1] != "a" || walked[2] != "b" || walked[3] != "c" || walked[4] != "d" {
		t.Fatalf("key walk %q, want the initial key then a, b, c, d", walked)
	}
}

// TestEmitParentRefused: a worker's ack is network input, so an emit
// naming a parent that is not an item of the acked batch — negative,
// far past the visited set, or the next id, which the finished run does
// hold — is refused with its connection, the batch re-queues, and the
// job finishes with the serial verdict.  A negative parent used to reach
// HasCycle's adjacency index and crash the coordinator; an in-range one
// planted an edge the configuration graph does not have.
func TestEmitParentRefused(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})
	for _, tc := range []struct {
		name string
		from func(items []item) int64
	}{
		{"negative", func([]item) int64 { return -1 }},
		{"past-the-visited-set", func([]item) int64 { return 1 << 40 }},
		{"not-in-batch", func(items []item) int64 {
			var top int64
			for _, it := range items {
				top = max(top, it.id)
			}
			return top + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addr := ln.Addr().String()
			var wg sync.WaitGroup
			lied := make(chan struct{}) // closed once the rogue's ack is on the wire
			wg.Add(1)
			go func() { // the rogue: the cluster's only worker, acks its first batch with a bad parent
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer conn.Close()
				frame.Write(conn, msgHello, helloMsg{Version: wireVersion, Identity: 99}.encode())
				br := bufio.NewReader(conn)
				for {
					typ, p, err := frame.Read(br)
					if err != nil {
						return // buried by the coordinator, or the job ended
					}
					switch typ {
					case msgPing:
						frame.Write(conn, msgPong, p)
					case msgBatch:
						bm, err := decodeBatch(p)
						if err != nil {
							return
						}
						frame.Write(conn, msgDone, doneMsg{ID: bm.ID, Epoch: bm.Epoch,
							Emits: []emit{{from: tc.from(bm.Items), key: []byte("rogue")}}}.encode())
						close(lied)
						io.Copy(io.Discard, br) // until the coordinator hangs up
						return
					}
				}
			}()
			done := make(chan struct{})
			wg.Add(1)
			go func() { // an honest worker joins once the rogue has lied, and finishes the job
				defer wg.Done()
				select {
				case <-lied:
				case <-done:
					return
				}
				_ = Work(addr, WorkerOptions{ID: 1, Done: done, MaxAttempts: 1 << 20,
					BaseBackoff: 5 * time.Millisecond, MaxBackoff: 250 * time.Millisecond})
			}()
			rep, err := Serve(ln, 1, Job{Spec: spec, Inputs: inputs}, Options{})
			ln.Close()
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			requireSameReport(t, "counter-walk/"+tc.name, serial, rep)
			if rec := rep.Stats.Recovery; rec.WorkerDeaths < 1 || rec.RequeuedBatches < 1 {
				t.Fatalf("the rogue's ack was not refused with its connection: %+v", rec)
			}
		})
	}
}
