package valency

import (
	"math/rand"
	"testing"
	"testing/quick"

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
	visited := map[string]bool{initial.Key(): true}
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
				if key := next.Key(); !visited[key] {
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
