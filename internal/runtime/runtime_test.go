package runtime

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"randsync/internal/explore"
	"randsync/internal/object"
)

// invariant is one row of the concurrency table: procs processes each
// apply ops(p) to one shared Object of typ, and check judges the
// responses (resps[p][i] answers ops(p)[i]) and the object's final value.
// Every invariant follows from linearizability alone, so it must hold
// under any schedule.
type invariant struct {
	name  string
	typ   object.Type
	procs int
	ops   func(p int) []object.Op
	check func(resps [][]int64, final int64) error
}

// repeat returns k copies of op.
func repeat(k int, op object.Op) []object.Op {
	ops := make([]object.Op, k)
	for i := range ops {
		ops[i] = op
	}
	return ops
}

// permutation reports whether the responses, flattened, are exactly
// first, first+step, first+2·step, ... in some order: no two fetch&ops
// saw the same value and none was lost.
func permutation(resps [][]int64, first, step int64) error {
	got := slices.Concat(resps...)
	slices.Sort(got)
	if step < 0 {
		slices.Reverse(got)
	}
	for i, v := range got {
		if v != first+int64(i)*step {
			return fmt.Errorf("responses %v are not %d, %d, ... in some order", got, first, first+step)
		}
	}
	return nil
}

// winners returns the processes whose first response was want.
func winners(resps [][]int64, want int64) []int {
	var won []int
	for p, r := range resps {
		if r[0] == want {
			won = append(won, p)
		}
	}
	return won
}

var (
	read  = object.Op{Kind: object.Read}
	inc   = object.Op{Kind: object.Inc}
	dec   = object.Op{Kind: object.Dec}
	write = func(v int64) object.Op { return object.Op{Kind: object.Write, Arg: v} }
)

// invariants is the table: one row per concurrency invariant of the ten
// object types.
var invariants = []invariant{
	{
		name: "register: a read sees the initial value or a write, and the last write stays",
		typ:  object.RegisterType{Initial: 7}, procs: 8,
		ops: func(p int) []object.Op {
			var ops []object.Op
			for i := range 50 {
				ops = append(ops, write(int64(p*100+i+1)), read)
			}
			return ops
		},
		check: func(resps [][]int64, final int64) error {
			for p, r := range resps {
				for i := 1; i < len(r); i += 2 {
					if v := r[i]; v != 7 && (v < 1 || v/100 >= 8 || v%100 == 0 || v%100 > 50) {
						return fmt.Errorf("process %d read %d, neither the initial 7 nor a write", p, v)
					}
				}
			}
			if final%100 != 50 {
				return fmt.Errorf("final value %d is no process's last write", final)
			}
			return nil
		},
	},
	{
		name: "swap register: every value swapped in is swapped out once or stays",
		typ:  object.SwapRegisterType{}, procs: 8,
		ops: func(p int) []object.Op {
			var ops []object.Op
			for i := range 50 {
				ops = append(ops, object.Op{Kind: object.Swap, Arg: int64(p*100 + i + 1)})
			}
			return ops
		},
		check: func(resps [][]int64, final int64) error {
			got := append(slices.Concat(resps...), final)
			var want []int64
			for p := range 8 {
				for i := range 50 {
					want = append(want, int64(p*100+i+1))
				}
			}
			want = append(want, 0)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return fmt.Errorf("swap responses and final value %v are not the initial value and the swapped-in values", got)
			}
			return nil
		},
	},
	{
		name: "test&set: exactly one winner",
		typ:  object.TestAndSetType{}, procs: 16,
		ops: func(int) []object.Op { return []object.Op{{Kind: object.TestAndSet}, read} },
		check: func(resps [][]int64, final int64) error {
			if won := winners(resps, 0); len(won) != 1 || final != 1 {
				return fmt.Errorf("test&set winners %v, final %d; want exactly one, final 1", won, final)
			}
			return nil
		},
	},
	{
		name: "counter: no lost update",
		typ:  object.CounterType{}, procs: 8,
		ops: func(int) []object.Op { return append(repeat(100, inc), repeat(50, dec)...) },
		check: func(_ [][]int64, final int64) error {
			if final != 8*50 {
				return fmt.Errorf("counter = %d, want %d", final, 8*50)
			}
			return nil
		},
	},
	{
		name: "bounded counter: wraps without losing an update",
		// 8·(101 − 3) = 784 net increments from 0 in [−2, 2] wrap to −1.
		typ: object.BoundedCounterType{Lo: -2, Hi: 2}, procs: 8,
		ops: func(int) []object.Op { return append(repeat(101, inc), repeat(3, dec)...) },
		check: func(_ [][]int64, final int64) error {
			if final != -1 {
				return fmt.Errorf("bounded counter = %d, want 784 increments wrapped into [-2, 2]: -1", final)
			}
			return nil
		},
	},
	{
		name: "bounded counter: no lost update below the bound",
		typ:  object.BoundedCounterType{Lo: -1 << 30, Hi: 1 << 30}, procs: 8,
		ops: func(int) []object.Op { return repeat(500, inc) },
		check: func(_ [][]int64, final int64) error {
			if final != 8*500 {
				return fmt.Errorf("bounded counter = %d, want %d", final, 8*500)
			}
			return nil
		},
	},
	{
		name: "fetch&add: responses are distinct and none is lost",
		typ:  object.FetchAddType{}, procs: 8,
		ops: func(int) []object.Op { return repeat(25, object.Op{Kind: object.FetchAdd, Arg: 1}) },
		check: func(resps [][]int64, final int64) error {
			if final != 200 {
				return fmt.Errorf("fetch&add final = %d, want 200", final)
			}
			return permutation(resps, 0, 1)
		},
	},
	{
		name: "fetch&inc: responses are distinct and none is lost",
		typ:  object.FetchIncType{}, procs: 8,
		ops: func(int) []object.Op { return repeat(25, object.Op{Kind: object.FetchInc}) },
		check: func(resps [][]int64, final int64) error {
			if final != 200 {
				return fmt.Errorf("fetch&inc final = %d, want 200", final)
			}
			return permutation(resps, 0, 1)
		},
	},
	{
		name: "fetch&dec: responses are distinct and none is lost",
		typ:  object.FetchDecType{}, procs: 8,
		ops: func(int) []object.Op { return repeat(25, object.Op{Kind: object.FetchDec}) },
		check: func(resps [][]int64, final int64) error {
			if final != -200 {
				return fmt.Errorf("fetch&dec final = %d, want -200", final)
			}
			return permutation(resps, 0, -1)
		},
	},
	{
		name: "compare&swap: exactly one winner, every loser sees it",
		typ:  object.CASType{Initial: -1}, procs: 16,
		ops: func(p int) []object.Op {
			return []object.Op{{Kind: object.CompareAndSwap, Arg: int64(p), Arg2: -1}}
		},
		check: func(resps [][]int64, final int64) error {
			won := winners(resps, -1)
			if len(won) != 1 || final != int64(won[0]) {
				return fmt.Errorf("compare&swap winners %v, final %d; want one winner, its value final", won, final)
			}
			for p, r := range resps {
				if p != won[0] && r[0] != final {
					return fmt.Errorf("loser %d saw %d, not the winner's %d", p, r[0], final)
				}
			}
			return nil
		},
	},
	{
		name: "compare&swap: a failed compare&swap returns the value and changes nothing",
		typ:  object.CASType{Initial: 5}, procs: 8,
		ops: func(p int) []object.Op {
			return []object.Op{{Kind: object.CompareAndSwap, Arg: int64(p + 10), Arg2: 3}, read}
		},
		check: func(resps [][]int64, final int64) error {
			for p, r := range resps {
				if r[0] != 5 || r[1] != 5 || final != 5 {
					return fmt.Errorf("process %d: compare&swap(3→%d) on 5 returned %d, then read %d, final %d", p, p+10, r[0], r[1], final)
				}
			}
			return nil
		},
	},
	{
		name: "sticky bit: the first sticker wins",
		typ:  object.StickyBitType{}, procs: 12,
		ops: func(p int) []object.Op { return []object.Op{{Kind: object.Stick, Arg: int64(p + 1)}} },
		check: func(resps [][]int64, final int64) error {
			for p, r := range resps {
				if r[0] != final || final < 1 || final > 12 {
					return fmt.Errorf("process %d saw %d stuck, final %d; want one proposal in 1..12", p, r[0], final)
				}
			}
			return nil
		},
	},
}

// row returns the invariant whose name starts with prefix.
func row(t *testing.T, prefix string) invariant {
	t.Helper()
	for _, inv := range invariants {
		if strings.HasPrefix(inv.name, prefix) {
			return inv
		}
	}
	t.Fatalf("no invariant %q", prefix)
	return invariant{}
}

// hammer runs inv's processes concurrently, one goroutine each, against
// one unrecorded Object, and checks the invariant.
func hammer(t *testing.T, inv invariant) {
	t.Helper()
	o := NewObject(inv.typ, nil)
	resps := make([][]int64, inv.procs)
	var wg sync.WaitGroup
	for p := range inv.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range inv.ops(p) {
				resps[p] = append(resps[p], o.Do(p, op))
			}
		}()
	}
	wg.Wait()
	if err := inv.check(resps, o.Read(0)); err != nil {
		t.Fatalf("%s: %v", inv.name, err)
	}
}

func TestRegisterBasics(t *testing.T)          { hammer(t, row(t, "register")) }
func TestSwapRegister(t *testing.T)            { hammer(t, row(t, "swap register")) }
func TestTestAndSetSingleWinner(t *testing.T)  { hammer(t, row(t, "test&set")) }
func TestCounterConcurrent(t *testing.T)       { hammer(t, row(t, "counter")) }
func TestBoundedCounterWrapsLive(t *testing.T) { hammer(t, row(t, "bounded counter: wraps")) }
func TestBoundedCounterConcurrentNoLostUpdates(t *testing.T) {
	hammer(t, row(t, "bounded counter: no lost"))
}
func TestFetchAddConcurrentUnique(t *testing.T) { hammer(t, row(t, "fetch&add")) }
func TestFetchIncDec(t *testing.T) {
	hammer(t, row(t, "fetch&inc"))
	hammer(t, row(t, "fetch&dec"))
}
func TestCASOneWinner(t *testing.T)             { hammer(t, row(t, "compare&swap: exactly one")) }
func TestCASFailureReturnsCurrent(t *testing.T) { hammer(t, row(t, "compare&swap: a failed")) }
func TestStickyBitFirstWins(t *testing.T)       { hammer(t, row(t, "sticky bit")) }

// TestPoolStressLiveObjects runs the whole table at once through
// explore.Each — the fan-out the all-inputs sweep, the hierarchy search
// and the distributed worker run on — one task per (row, process), every
// object recording to one Recorder.  Run under -race it cross-checks the
// fan-out's index claiming against the objects' compare&swap loop and the
// recorder's locking at once.  The recorder must hold the whole history.
func TestPoolStressLiveObjects(t *testing.T) {
	type task struct{ row, proc int }
	rec := &Recorder{}
	objs := make([]*Object, len(invariants))
	resps := make([][][]int64, len(invariants))
	var tasks []task
	total := 0
	for i, inv := range invariants {
		objs[i] = NewObject(inv.typ, rec)
		resps[i] = make([][]int64, inv.procs)
		for p := range inv.procs {
			tasks = append(tasks, task{i, p})
			total += len(inv.ops(p))
		}
	}
	explore.Each(8, len(tasks), func(_, k int) bool {
		tk := tasks[k]
		for _, op := range invariants[tk.row].ops(tk.proc) {
			resps[tk.row][tk.proc] = append(resps[tk.row][tk.proc], objs[tk.row].Do(tk.proc, op))
		}
		return true
	})
	if got := rec.Len(); got != total {
		t.Fatalf("recorder holds %d ops, want all %d", got, total)
	}
	for i, inv := range invariants {
		if err := inv.check(resps[i], objs[i].Read(0)); err != nil {
			t.Errorf("%s: %v", inv.name, err)
		}
	}
}

func TestRecorderCapturesHistory(t *testing.T) {
	rec := &Recorder{}
	r := NewObject(object.RegisterType{}, rec)
	r.Do(1, write(5))
	if got := r.Read(2); got != 5 {
		t.Fatalf("read = %d", got)
	}
	ops := rec.Ops()
	if len(ops) != 2 || rec.Len() != 2 {
		t.Fatalf("recorded %d ops (Len %d), want 2", len(ops), rec.Len())
	}
	if ops[0].Proc != 1 || ops[0].Op != write(5) || ops[1].Proc != 2 || ops[1].Resp != 5 {
		t.Fatalf("history %+v, want write(5) by 1 then read of 5 by 2", ops)
	}
	if !(ops[0].Call < ops[0].Return && ops[0].Return < ops[1].Call) {
		t.Fatalf("timestamps not ordered: %+v", ops)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var rec *Recorder
	if got := rec.Record(0, read, func() int64 { return 42 }); got != 42 {
		t.Fatalf("nil recorder returned %d, want fn's 42", got)
	}
	r := NewObject(object.RegisterType{}, rec)
	r.Do(0, write(1))
	if r.Read(0) != 1 {
		t.Fatal("nil recorder should not affect semantics")
	}
}

// TestUnrecordedDoAllocatesNothing pins the live hot path: without a
// recorder, Do is a load, the type's Apply and at most one compare&swap,
// with no allocation.
func TestUnrecordedDoAllocatesNothing(t *testing.T) {
	o := NewObject(object.CounterType{}, nil)
	if allocs := testing.AllocsPerRun(1000, func() { o.Do(0, inc); o.Read(0) }); allocs != 0 {
		t.Fatalf("unrecorded Do allocates %.1f times per call, want 0", allocs)
	}
}
