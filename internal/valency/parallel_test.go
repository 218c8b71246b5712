package valency

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"randsync/internal/explore"
	"randsync/internal/protocol"
	"randsync/internal/sim"
)

// diffProtocols is every simulator-world protocol family at n=2 — the
// clean upper bounds, the flawed floods, and a generated scan machine —
// used by the parallel/serial differential tests.
func diffProtocols() []sim.Protocol {
	return []sim.Protocol{
		protocol.CASConsensus{},
		protocol.StickyConsensus{},
		protocol.NewTAS2(),
		protocol.NewSwap2(),
		protocol.NewFetchAdd2(),
		protocol.NewFetchInc2(),
		protocol.RegisterNaive2{},
		protocol.NewCounterWalk(2),
		protocol.NewPackedFetchAdd(2),
		protocol.NewRegisterConsensus(2, 2),
		protocol.NewRegisterFlood(2),
		protocol.NewSwapFlood(2),
		protocol.NewMixedFlood(2),
		protocol.GenerateScanMachine(1, 1),
	}
}

// requireSameReport asserts byte-identical verdicts: every Report field
// except the Stats telemetry must match the serial reference.
func requireSameReport(t *testing.T, name string, serial, parallel *Report) {
	t.Helper()
	if serial.Complete != parallel.Complete {
		t.Errorf("%s: Complete: serial %v, parallel %v", name, serial.Complete, parallel.Complete)
	}
	if serial.Configs != parallel.Configs {
		t.Errorf("%s: Configs: serial %d, parallel %d", name, serial.Configs, parallel.Configs)
	}
	if serial.Livelock != parallel.Livelock {
		t.Errorf("%s: Livelock: serial %v, parallel %v", name, serial.Livelock, parallel.Livelock)
	}
	if len(serial.Decisions) != len(parallel.Decisions) {
		t.Errorf("%s: Decisions: serial %v, parallel %v", name, serial.Decisions, parallel.Decisions)
	}
	for v := range serial.Decisions {
		if !parallel.Decisions[v] {
			t.Errorf("%s: decision %d reachable serially but not in parallel", name, v)
		}
	}
	sv, pv := serial.Violation, parallel.Violation
	switch {
	case sv == nil && pv == nil:
	case sv == nil || pv == nil:
		t.Errorf("%s: Violation: serial %v, parallel %v", name, sv, pv)
	default:
		if sv.Kind != pv.Kind {
			t.Errorf("%s: violation kind: serial %v, parallel %v", name, sv.Kind, pv.Kind)
		}
		if sv.Detail != pv.Detail {
			t.Errorf("%s: violation detail: serial %q, parallel %q", name, sv.Detail, pv.Detail)
		}
		if sv.Trace.String() != pv.Trace.String() {
			t.Errorf("%s: violation traces differ:\nserial:\n%v\nparallel:\n%v", name, sv.Trace, pv.Trace)
		}
	}
}

// TestParallelSerialDifferential: for every sim protocol at n=2 and
// several worker counts, the parallel checker must return the same
// verdict as the serial reference — Complete, Configs, Violation (kind,
// detail, and the exact canonical trace), Decisions, and Livelock.
func TestParallelSerialDifferential(t *testing.T) {
	for _, p := range diffProtocols() {
		serial := CheckAllInputs(p, 2, Options{})
		for _, workers := range []int{2, 4, 8} {
			par := CheckAllInputs(p, 2, Options{Workers: workers})
			requireSameReport(t, p.Name(), serial, par)
		}
	}
}

// TestParallelSerialDifferentialSingleVector covers the single-vector
// Check path (mixed inputs), where the configuration-level engine runs
// rather than the vector-level fan-out.
func TestParallelSerialDifferentialSingleVector(t *testing.T) {
	for _, p := range diffProtocols() {
		serial := Check(p, []int64{0, 1}, Options{})
		for _, workers := range []int{2, 4} {
			par := Check(p, []int64{0, 1}, Options{Workers: workers})
			requireSameReport(t, p.Name(), serial, par)
		}
	}
}

// TestParallelRunsDeterministic: two parallel runs with different worker
// counts agree with each other (not merely with serial) — the report is
// a pure function of the protocol and inputs.
func TestParallelRunsDeterministic(t *testing.T) {
	p := protocol.NewCounterWalk(2)
	a := CheckAllInputs(p, 2, Options{Workers: 2})
	b := CheckAllInputs(p, 2, Options{Workers: 7})
	requireSameReport(t, p.Name(), a, b)
	if a.Stats == nil || b.Stats == nil {
		t.Fatal("parallel runs must carry Stats telemetry")
	}
}

// shuffledVerdict explores proto's full reachable space popping the
// frontier in a seed-shuffled order and returns the decided-values set
// and the set of violation kinds present at reachable configurations.
// Exploration order must not change either (the property the parallel
// engine's determinism rests on).
func shuffledVerdict(p sim.Protocol, inputs []int64, seed int64) (map[int64]bool, map[ViolationKind]bool) {
	rng := rand.New(rand.NewSource(seed))
	valid := make(map[int64]bool, len(inputs))
	for _, in := range inputs {
		valid[in] = true
	}
	decisions := make(map[int64]bool)
	kinds := make(map[ViolationKind]bool)

	initial := sim.NewConfig(p, inputs)
	visited := map[string]bool{keyOf(initial): true}
	frontier := []*sim.Config{initial}
	for len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		c := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		firstPid, firstVal := -1, int64(0)
		for pid, d := range c.Decided {
			if !d {
				if c.Pending(pid).Kind == sim.ActHalt {
					kinds[Stuck] = true
				}
				continue
			}
			v := c.Decision[pid]
			decisions[v] = true
			if !valid[v] {
				kinds[Validity] = true
			}
			if firstPid == -1 {
				firstPid, firstVal = pid, v
			} else if v != firstVal {
				kinds[Consistency] = true
			}
		}

		for pid := 0; pid < c.N(); pid++ {
			a := c.Pending(pid)
			if a.Kind == sim.ActHalt {
				continue
			}
			outcomes := int64(1)
			if a.Kind == sim.ActFlip {
				outcomes = a.Sides
			}
			for o := int64(0); o < outcomes; o++ {
				next := c.Clone()
				if _, err := next.Step(pid, o); err != nil {
					kinds[Stuck] = true
					continue
				}
				if key := keyOf(next); !visited[key] {
					visited[key] = true
					frontier = append(frontier, next)
				}
			}
		}
	}
	return decisions, kinds
}

// engineVariants is the option matrix the sharded/serial differential
// sweeps: plain runs, an explicit crash schedule (which
// also turns symmetry reduction off and exercises the crash-suffixed
// visit keys), and symmetry reduction disabled outright.
func engineVariants() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"base", Options{}},
		{"crash", Options{Crash: []int{2, -1}}},
		{"nosym", Options{NoSymmetry: true}},
	}
}

// TestShardedStripedSerialMatrix is the engine differential matrix: for
// every protocol in the zoo × every option variant × several worker
// counts, the shard-owned engine must reproduce the serial verdict
// byte-identically — Complete, Configs, Violation (kind, detail, exact
// trace), Decisions, and Livelock.  (The name is kept for the check.sh
// and CI selectors.)
func TestShardedStripedSerialMatrix(t *testing.T) {
	workerCounts := []int{2, 4, 7}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, p := range diffProtocols() {
		for _, v := range engineVariants() {
			serial := Check(p, []int64{0, 1}, v.opts)
			for _, workers := range workerCounts {
				sh := v.opts
				sh.Workers = workers
				sharded := Check(p, []int64{0, 1}, sh)
				requireSameReport(t, p.Name()+"/"+v.name+"/sharded", serial, sharded)
			}
		}
	}
}

// TestShardedAllInputsDifferential covers the CheckAllInputs path at a
// worker count high enough (8 > 2·vectors at n=2) to force the
// configuration-level engine rather than the vector-level serial
// fan-out.
func TestShardedAllInputsDifferential(t *testing.T) {
	for _, p := range diffProtocols() {
		for _, v := range engineVariants() {
			if testing.Short() && v.name != "base" {
				continue
			}
			serial := CheckAllInputs(p, 2, v.opts)
			sh := v.opts
			sh.Workers = 8
			requireSameReport(t, p.Name()+"/"+v.name+"/sharded", serial, CheckAllInputs(p, 2, sh))
		}
	}
}

// TestShardedEnginesAgreeAcrossWorkerCounts: two sharded runs with
// different worker counts agree with each other directly (not merely
// with serial), and the sharded run carries the
// shard-engine telemetry: one stripe per worker and, on a space this
// size, actual cross-shard hand-off traffic.
func TestShardedEnginesAgreeAcrossWorkerCounts(t *testing.T) {
	p := protocol.NewCounterWalk(2)
	a := CheckAllInputs(p, 2, Options{Workers: 8})
	b := CheckAllInputs(p, 2, Options{Workers: 3})
	requireSameReport(t, p.Name(), a, b)
	if a.Stats == nil {
		t.Fatal("sharded run must carry Stats telemetry")
	}
	single := Check(p, []int64{0, 1}, Options{Workers: 4})
	if single.Stats.Stripes != 4 {
		t.Fatalf("sharded census stripes = %d, want one per worker (4)", single.Stats.Stripes)
	}
	if single.Stats.HandoffItems == 0 {
		t.Fatal("sharded run recorded no cross-shard hand-off items")
	}
	if single.Stats.HandoffBatches == 0 {
		t.Fatal("sharded run recorded no hand-off batches")
	}
	if single.Stats.KeyBytes <= 0 {
		t.Fatal("sharded run retained no key bytes")
	}
}

// TestQuickOrderIndependence (testing/quick): shuffling the frontier pop
// order never changes the decided-values set or the violation kinds of
// the full reachable space — for a clean randomized protocol and for two
// flawed ones.
func TestQuickOrderIndependence(t *testing.T) {
	cases := []struct {
		proto  sim.Protocol
		inputs []int64
	}{
		{protocol.NewCounterWalk(2), []int64{0, 1}},
		{protocol.RegisterNaive2{}, []int64{0, 1}},
		{protocol.NewSwapFlood(2), []int64{1, 0}},
	}
	for _, tc := range cases {
		baseDec, baseKinds := shuffledVerdict(tc.proto, tc.inputs, 0)
		f := func(seed int64) bool {
			dec, kinds := shuffledVerdict(tc.proto, tc.inputs, seed)
			if len(dec) != len(baseDec) || len(kinds) != len(baseKinds) {
				return false
			}
			for v := range baseDec {
				if !dec[v] {
					return false
				}
			}
			for k := range baseKinds {
				if !kinds[k] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: exploration order changed the verdict: %v", tc.proto.Name(), err)
		}
	}
}

// TestStatsFold pins the one all-inputs Stats fold on hand-built
// per-vector Stats: high-water marks take the maximum, counters sum, the
// disk tier folds too, and MinStripeKeys is the minimum over the
// vectors that report a census — an empty shard's 0 counts, whichever
// vector it is in, while a serial vector's absent census does not.
func TestStatsFold(t *testing.T) {
	a := &Stats{Workers: 4, Generated: 100, DedupHits: 50, PeakFrontier: 41, KeyBytes: 1000, Elapsed: 3,
		Stripes: 4, Collisions: 1, MinStripeKeys: 10, MaxStripeKeys: 20, HandoffBatches: 5,
		HandoffItems: 60, RecycledBatches: 7, Checkpoints: 2,
		Spill: &explore.SpillStats{Keys: 30, Bytes: 300, Flushes: 2, Lookups: 9, Checkpoints: 2}}
	b := &Stats{Workers: 4, Generated: 200, DedupHits: 70, PeakFrontier: 166, KeyBytes: 3000, Elapsed: 4,
		Stripes: 4, MinStripeKeys: 7, MaxStripeKeys: 90, HandoffBatches: 8, HandoffItems: 90,
		RecycledBatches: 11, Spill: &explore.SpillStats{Keys: 10, Bytes: 900, Lookups: 1, Resumed: true}}
	empty := &Stats{Workers: 4, Generated: 1, PeakFrontier: 1, KeyBytes: 40, Stripes: 4, MaxStripeKeys: 1}
	serial := &Stats{Workers: 1, Generated: 5, KeyBytes: 9}
	sum := func(min int64, vs ...*Stats) *Stats {
		want := &Stats{Workers: 4, Generated: 300, DedupHits: 120, PeakFrontier: 166, KeyBytes: 4000,
			Elapsed: 7, Stripes: 4, Collisions: 1, MinStripeKeys: min, MaxStripeKeys: 90,
			HandoffBatches: 13, HandoffItems: 150, RecycledBatches: 18, Checkpoints: 2,
			Spill: &explore.SpillStats{Keys: 30, Bytes: 900, Flushes: 2, Lookups: 10, Checkpoints: 2, Resumed: true}}
		for _, v := range vs {
			want.Generated += v.Generated
			want.KeyBytes += v.KeyBytes
		}
		return want
	}
	for _, tc := range []struct {
		name string
		vecs []*Stats
		want *Stats
	}{
		{"census", []*Stats{a, b, nil}, sum(7)},
		{"serial vectors carry no census", []*Stats{serial, a, serial, b}, sum(7, serial, serial)},
		{"empty shard first", []*Stats{empty, a, b}, sum(0, empty)},
		{"empty shard last", []*Stats{a, b, empty}, sum(0, empty)},
	} {
		got := &Stats{Workers: 4}
		for _, v := range tc.vecs {
			got.fold(v)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v %+v\nwant %+v %+v", tc.name, got, got.Spill, tc.want, tc.want.Spill)
		}
	}
}

// allocBytes runs check and returns its report and the bytes it
// allocated: the TotalAlloc delta across the call, after a GC.
func allocBytes(check func() *Report) (*Report, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := check()
	runtime.ReadMemStats(&after)
	return rep, after.TotalAlloc - before.TotalAlloc
}

// TestShardedAllocBytesPerConfig pins the sharded engine's memory per
// configuration: the visited set (a pointer-free key table over a key
// arena), the chunked edge log and the frontier's recycled items must
// keep counter-walk n = 3 at or under 550 allocated bytes per
// configuration.  It runs the engine with one worker, so no cross-shard
// hand-off is in flight and the reading does not depend on how workers
// interleave: one run, one reading (about 302 B).
func TestShardedAllocBytesPerConfig(t *testing.T) {
	const bound = 550
	rep, total := allocBytes(func() *Report {
		rep, err := checkSharded(protocol.NewCounterWalk(3), []int64{0, 1, 0}, Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
	if !rep.Complete || rep.Violation != nil || rep.Configs == 0 || rep.Stats.Generated == 0 {
		t.Fatalf("counter-walk n=3 must verify cleanly on the sharded engine: complete=%v violation=%v configs=%d generated=%d",
			rep.Complete, rep.Violation, rep.Configs, rep.Stats.Generated)
	}
	perConfig := float64(total) / float64(rep.Configs)
	t.Logf("%d configs, %d bytes allocated, %.0f B/config", rep.Configs, total, perConfig)
	if perConfig > bound {
		t.Fatalf("%.0f B allocated per configuration, want at most %d", perConfig, bound)
	}
}

// TestShardedSmallJobAllocs guards the fixed cost of a sharded run: a
// tiny job (counter-walk n = 2) must allocate at most 400 KiB in total,
// so the visited set's table, arena and edge chunks have to start small
// and grow with the job instead of at the sizes a large job reaches.
func TestShardedSmallJobAllocs(t *testing.T) {
	rep, total := allocBytes(func() *Report {
		return Check(protocol.NewCounterWalk(2), []int64{0, 1}, Options{Workers: 2})
	})
	if !rep.Complete || rep.Violation != nil {
		t.Fatalf("counter-walk n=2 must verify cleanly: complete=%v violation=%v", rep.Complete, rep.Violation)
	}
	t.Logf("%d configs, %d bytes allocated", rep.Configs, total)
	if total > 400<<10 {
		t.Fatalf("%d bytes allocated, want at most %d", total, 400<<10)
	}
}
