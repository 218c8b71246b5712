package linearizability

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"randsync/internal/object"
	"randsync/internal/runtime"
)

// op builds a RecordedOp tersely for hand-crafted histories.
func op(proc int, o object.Op, resp, call, ret int64) runtime.RecordedOp {
	return runtime.RecordedOp{Proc: proc, Op: o, Resp: resp, Call: call, Return: ret}
}

var (
	read  = object.Op{Kind: object.Read}
	write = func(v int64) object.Op { return object.Op{Kind: object.Write, Arg: v} }
	inc   = object.Op{Kind: object.Inc}
)

func TestSequentialHistoryLinearizable(t *testing.T) {
	h := []runtime.RecordedOp{
		op(0, write(3), 0, 1, 2),
		op(1, read, 3, 3, 4),
	}
	res, err := Check(object.RegisterType{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("sequential history should be linearizable")
	}
	if len(res.Order) != 2 || res.Order[0] != 0 {
		t.Fatalf("order = %v", res.Order)
	}
}

func TestStaleReadNotLinearizable(t *testing.T) {
	// write(3) completes strictly before a read that returns the initial
	// value: no legal order exists.
	h := []runtime.RecordedOp{
		op(0, write(3), 0, 1, 2),
		op(1, read, 0, 3, 4),
	}
	res, err := Check(object.RegisterType{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("stale read should not be linearizable")
	}
}

func TestOverlappingOpsMayReorder(t *testing.T) {
	// The read overlaps the write, so it may linearize before it and
	// legally return the initial value.
	h := []runtime.RecordedOp{
		op(0, write(3), 0, 1, 4),
		op(1, read, 0, 2, 3),
	}
	res, err := Check(object.RegisterType{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("overlapping read may precede the write")
	}
}

func TestCounterHistory(t *testing.T) {
	// Two concurrent incs then a read of 2: linearizable.
	h := []runtime.RecordedOp{
		op(0, inc, 0, 1, 4),
		op(1, inc, 0, 2, 3),
		op(2, read, 2, 5, 6),
	}
	res, err := Check(object.CounterType{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("two incs then read 2 should be linearizable")
	}
	// Read of 1 after both incs completed: not linearizable.
	h[2].Resp = 1
	res, err = Check(object.CounterType{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("lost increment should be detected")
	}
}

func TestTooLongHistoryRejected(t *testing.T) {
	h := make([]runtime.RecordedOp, MaxOps+1)
	for i := range h {
		h[i] = op(0, inc, 0, int64(2*i), int64(2*i+1))
	}
	if _, err := Check(object.CounterType{}, h); err == nil {
		t.Fatal("expected error for over-long history")
	}
}

func TestUnsupportedOpRejected(t *testing.T) {
	h := []runtime.RecordedOp{op(0, object.Op{Kind: object.Swap, Arg: 1}, 0, 1, 2)}
	if _, err := Check(object.RegisterType{}, h); err == nil {
		t.Fatal("expected error for unsupported op kind")
	}
}

// TestLiveObjectsLinearizable hammers recorded live objects of every
// object type with concurrent goroutines, each issuing an op mix drawn
// from the type's Ops, and checks the resulting histories.  Goroutines
// left to themselves seldom overlap their operations enough to expose a
// non-atomic object, so the processes start their i-th operations in
// lockstep, and every type gets many independent histories, each on a
// fresh object and each within MaxOps.
func TestLiveObjectsLinearizable(t *testing.T) {
	const procs, each, histories = 4, 8, 32 // 32 ops ≤ MaxOps per history
	for _, row := range []struct {
		name string
		typ  object.Type
	}{
		{"register", object.RegisterType{}},
		{"swap", object.SwapRegisterType{}},
		{"tas", object.TestAndSetType{}},
		{"counter", object.CounterType{}},
		{"bounded-counter", object.BoundedCounterType{Lo: -2, Hi: 2}},
		{"fetchadd", object.FetchAddType{}},
		{"fetchinc", object.FetchIncType{}},
		{"fetchdec", object.FetchDecType{}},
		{"cas", object.CASType{}},
		{"sticky", object.StickyBitType{}},
	} {
		t.Run(row.name, func(t *testing.T) {
			for h := 0; h < histories; h++ {
				rec := &runtime.Recorder{}
				o := runtime.NewObject(row.typ, rec)
				var arrived atomic.Int64
				hammer(procs, func(p int) {
					for i := 0; i < each; i++ {
						// Wait until every process has reached its op i.
						arrived.Add(1)
						for k := 1; arrived.Load() < int64((i+1)*procs); k++ {
							if k%64 == 0 {
								goruntime.Gosched()
							}
						}
						o.Do(p, mixOp(row.typ, p, i))
					}
				})
				if got := rec.Len(); got != procs*each || got > MaxOps {
					t.Fatalf("history %d: recorded %d ops, want %d (MaxOps %d)", h, got, procs*each, MaxOps)
				}
				requireLinearizable(t, row.typ, rec)
			}
		})
	}
}

// mixOp is process p's i-th operation on an object of typ: the kinds of
// typ.Ops() in turn, offset by p so that the processes overlap different
// kinds, with arguments that make the nontrivial operations race (each
// round of compare&swaps contends for the same expected value).
func mixOp(typ object.Type, p, i int) object.Op {
	kinds := typ.Ops()
	op := object.Op{Kind: kinds[(p+i)%len(kinds)]}
	switch op.Kind {
	case object.Write, object.Swap, object.Stick:
		op.Arg = int64(p*16 + i + 1)
	case object.FetchAdd:
		op.Arg = int64(p + 1)
	case object.CompareAndSwap:
		round := int64(i / len(kinds))
		op.Arg2, op.Arg = round, round+1
	}
	return op
}

// brokenCounter increments non-atomically (load, then store): a lost
// update produces a non-linearizable history, which the checker must
// detect (checker sensitivity, E10).
type brokenCounter struct {
	v   atomic.Int64
	rec *runtime.Recorder
	// race holds each process's first increment between its load and its
	// store until every process has loaded, so updates are lost on every
	// run rather than only under a lucky schedule.
	race sync.WaitGroup
}

func TestCheckerDetectsBrokenCounter(t *testing.T) {
	const procs, each = 4, 5
	rec := &runtime.Recorder{}
	b := &brokenCounter{rec: rec}
	b.race.Add(procs)
	hammer(procs, func(p int) {
		for i := 0; i < each; i++ {
			b.inc(p, i == 0)
		}
	})
	final := b.read(0)
	if final == procs*each {
		t.Fatalf("final=%d: the forced race lost no update", final)
	}
	res, err := Check(object.CounterType{}, rec.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatalf("lost update (final=%d, want %d) not detected", final, procs*each)
	}
}

func (b *brokenCounter) inc(p int, first bool) {
	b.rec.Record(p, object.Op{Kind: object.Inc}, func() int64 {
		v := b.v.Load()
		if first {
			b.race.Done()
			b.race.Wait()
		}
		b.v.Store(v + 1)
		return 0
	})
}

func (b *brokenCounter) read(p int) int64 {
	return b.rec.Record(p, object.Op{Kind: object.Read}, b.v.Load)
}

func TestCheckWindowsLongHistory(t *testing.T) {
	const procs, rounds = 4, 40 // 320 ops, far above MaxOps
	rec := &runtime.Recorder{}
	c := runtime.NewObject(object.CounterType{}, rec)
	// Sequential phases with concurrency inside each phase create
	// quiescent cuts for the windowing.
	for round := 0; round < rounds; round++ {
		hammer(procs, func(p int) {
			c.Do(p, inc)
			c.Read(p)
		})
	}
	res, err := CheckWindows(object.CounterType{}, rec.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("long counter history should be linearizable")
	}
}

// hammer runs body(p) for procs goroutines, released together so that
// their operations overlap.
func hammer(procs int, body func(p int)) {
	var wg, start sync.WaitGroup
	start.Add(1)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			start.Wait()
			body(p)
		}(p)
	}
	start.Done()
	wg.Wait()
}

func requireLinearizable(t *testing.T, typ object.Type, rec *runtime.Recorder) {
	t.Helper()
	res, err := Check(typ, rec.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatalf("%s: recorded history not linearizable (%d ops, %d states explored)",
			typ.Name(), rec.Len(), res.Explored)
	}
}
