package valency

import (
	"encoding/binary"
	"testing"

	"randsync/internal/protocol"
	"randsync/internal/sim"
)

// requireClean asserts a complete, violation-free exploration.
func requireClean(t *testing.T, rep *Report, proto string) {
	t.Helper()
	if rep.Violation != nil {
		t.Fatalf("%s: unexpected %v\ntrace:\n%v", proto, rep.Violation, rep.Violation.Trace)
	}
	if !rep.Complete {
		t.Fatalf("%s: exploration incomplete after %d configs", proto, rep.Configs)
	}
}

// requireViolation asserts that a violation of the given kind was found and
// that its trace replays to a configuration exhibiting it.
func requireViolation(t *testing.T, rep *Report, kind ViolationKind, proto sim.Protocol) {
	t.Helper()
	if rep.Violation == nil {
		t.Fatalf("%s: expected a %v violation, exploration was clean (%d configs)",
			proto.Name(), kind, rep.Configs)
	}
	if rep.Violation.Kind != kind {
		t.Fatalf("%s: violation kind = %v, want %v (%s)",
			proto.Name(), rep.Violation.Kind, kind, rep.Violation.Detail)
	}
	// The trace must replay legally from the initial configuration.
	c := sim.NewConfig(proto, rep.Inputs)
	if err := c.Apply(rep.Violation.Trace); err != nil {
		t.Fatalf("%s: violation trace does not replay: %v", proto.Name(), err)
	}
	if kind == Consistency {
		if got := c.Decisions(); len(got) < 2 {
			t.Fatalf("%s: replayed trace decides only %v, expected disagreement", proto.Name(), got)
		}
	}
}

func TestCASConsensusClean(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		rep := CheckAllInputs(protocol.CASConsensus{}, n, Options{})
		requireClean(t, rep, "cas-consensus")
		if rep.Livelock {
			t.Errorf("cas-consensus n=%d: deterministic wait-free protocol reported livelock", n)
		}
	}
}

// TestCASConsensusCleanParallel extends the CAS certificate beyond the
// serial test's n ≤ 4: the parallel engine checks n = 5 through n = 7
// under an explicit budget, fanning the 2^n input vectors out across
// workers.  n = 7 became affordable with the compact-key engine and
// symmetry reduction (identical CAS processes collapse the per-vector
// space to ~31k canonical configurations across all 2^7 vectors).
func TestCASConsensusCleanParallel(t *testing.T) {
	for _, n := range []int{5, 6, 7} {
		rep := CheckAllInputs(protocol.CASConsensus{}, n, Options{Workers: -1, MaxConfigs: 1 << 22})
		requireClean(t, rep, "cas-consensus")
		if rep.Livelock {
			t.Errorf("cas-consensus n=%d: deterministic wait-free protocol reported livelock", n)
		}
	}
}

func TestCASConsensusValidity(t *testing.T) {
	// With unanimous inputs only that value may be decided.
	for _, v := range []int64{0, 1} {
		rep := Check(protocol.CASConsensus{}, []int64{v, v, v}, Options{})
		requireClean(t, rep, "cas-consensus")
		if len(rep.Decisions) != 1 || !rep.Decisions[v] {
			t.Errorf("unanimous %d: decisions = %v", v, rep.Decisions)
		}
	}
	// With mixed inputs both values must be reachable (the protocol is not
	// a fixed-output triviality).
	rep := Check(protocol.CASConsensus{}, []int64{0, 1}, Options{})
	requireClean(t, rep, "cas-consensus")
	if !rep.Decisions[0] || !rep.Decisions[1] {
		t.Errorf("mixed inputs: decisions = %v, want both values reachable", rep.Decisions)
	}
}

func TestTwoProcessProtocolsClean(t *testing.T) {
	protos := []sim.Protocol{
		protocol.NewTAS2(),
		protocol.NewSwap2(),
		protocol.NewFetchAdd2(),
		protocol.NewFetchInc2(),
	}
	for _, p := range protos {
		rep := CheckAllInputs(p, 2, Options{})
		requireClean(t, rep, p.Name())
		if rep.Livelock {
			t.Errorf("%s: deterministic wait-free protocol reported livelock", p.Name())
		}
	}
}

func TestTwoProcessProtocolsStuckAtThree(t *testing.T) {
	// §4: one ordering object plus registers solves consensus for two
	// processes but not three; our implementations surface this as a
	// liveness defect for the third process.
	protos := []sim.Protocol{
		protocol.NewTAS2(),
		protocol.NewSwap2(),
		protocol.NewFetchAdd2(),
	}
	for _, p := range protos {
		rep := CheckAllInputs(p, 3, Options{})
		requireViolation(t, rep, Stuck, p)
	}
}

func TestRegisterNaive2Inconsistent(t *testing.T) {
	// Read-write registers cannot solve deterministic wait-free 2-process
	// consensus; the checker finds the concrete bad schedule.
	p := protocol.RegisterNaive2{}
	rep := CheckAllInputs(p, 2, Options{})
	requireViolation(t, rep, Consistency, p)
}

func TestRegisterFloodInconsistent(t *testing.T) {
	// Flood satisfies solo termination but cannot be consistent (Theorem
	// 3.7); at n=2 the checker already finds a disagreement schedule.
	p := protocol.NewRegisterFlood(2)
	rep := CheckAllInputs(p, 2, Options{})
	requireViolation(t, rep, Consistency, p)
}

func TestSwapFloodInconsistent(t *testing.T) {
	p := protocol.NewSwapFlood(2)
	rep := CheckAllInputs(p, 2, Options{})
	requireViolation(t, rep, Consistency, p)
}

func TestCounterWalkSafe(t *testing.T) {
	// Exhaustive safety certificate over all schedules and coin outcomes.
	for _, n := range []int{2, 3} {
		p := protocol.NewCounterWalk(n)
		rep := CheckAllInputs(p, n, Options{MaxConfigs: 1 << 24})
		requireClean(t, rep, p.Name())
		if !rep.Livelock {
			t.Error("counter-walk: randomized protocol should admit adversarial non-termination")
		}
	}
}

func TestCounterWalkValidity(t *testing.T) {
	p := protocol.NewCounterWalk(2)
	for _, v := range []int64{0, 1} {
		rep := Check(p, []int64{v, v}, Options{MaxConfigs: 1 << 22})
		requireClean(t, rep, p.Name())
		if len(rep.Decisions) != 1 || !rep.Decisions[v] {
			t.Errorf("unanimous %d: decisions = %v", v, rep.Decisions)
		}
	}
}

func TestPackedFetchAddSafe(t *testing.T) {
	for _, n := range []int{2, 3} {
		p := protocol.NewPackedFetchAdd(n)
		rep := CheckAllInputs(p, n, Options{MaxConfigs: 1 << 24})
		requireClean(t, rep, p.Name())
		if !rep.Livelock {
			t.Error("packed-fetch&add: randomized protocol should admit adversarial non-termination")
		}
	}
}

func TestPackedFetchAddValidity(t *testing.T) {
	p := protocol.NewPackedFetchAdd(2)
	for _, v := range []int64{0, 1} {
		rep := Check(p, []int64{v, v}, Options{MaxConfigs: 1 << 22})
		requireClean(t, rep, p.Name())
		if len(rep.Decisions) != 1 || !rep.Decisions[v] {
			t.Errorf("unanimous %d: decisions = %v", v, rep.Decisions)
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	p := protocol.NewCounterWalk(2)
	rep := Check(p, []int64{0, 1}, Options{MaxConfigs: 100})
	if rep.Complete {
		t.Error("tiny budget should mark exploration incomplete")
	}
	if rep.Configs > 101 {
		t.Errorf("explored %d configs with budget 100", rep.Configs)
	}
}

// TestRegisterConsensusSafe exhaustively verifies the safety of the
// Aspnes–Herlihy-style register protocol (E5): no schedule and no coin
// outcomes can violate consistency or validity within the round bound.
func TestRegisterConsensusSafe(t *testing.T) {
	p := protocol.NewRegisterConsensus(2, 3)
	rep := CheckAllInputs(p, 2, Options{MaxConfigs: 1 << 22})
	requireClean(t, rep, p.Name())
	if !rep.Livelock {
		t.Error("register consensus must admit adversarial non-termination (FLP)")
	}

	p3 := protocol.NewRegisterConsensus(3, 1)
	rep3 := CheckAllInputs(p3, 3, Options{MaxConfigs: 1 << 22})
	requireClean(t, rep3, p3.Name())
}

// TestRegisterConsensusSafeDeep is the n=3, two-round certificate
// (~8M configurations, about two minutes); skipped with -short.
func TestRegisterConsensusSafeDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep exploration skipped in -short mode")
	}
	p := protocol.NewRegisterConsensus(3, 2)
	rep := Check(p, []int64{0, 1, 1}, Options{MaxConfigs: 1 << 24})
	requireClean(t, rep, p.Name())
}

// TestRegisterConsensusValidity: unanimous inputs decide only that value.
func TestRegisterConsensusValidity(t *testing.T) {
	p := protocol.NewRegisterConsensus(2, 3)
	for _, v := range []int64{0, 1} {
		rep := Check(p, []int64{v, v}, Options{MaxConfigs: 1 << 22})
		requireClean(t, rep, p.Name())
		if len(rep.Decisions) != 1 || !rep.Decisions[v] {
			t.Errorf("unanimous %d: decisions = %v", v, rep.Decisions)
		}
	}
}

// TestRegisterConsensusBothReachable: with mixed inputs both decision
// values occur on some branch (the protocol is not trivially biased).
func TestRegisterConsensusBothReachable(t *testing.T) {
	p := protocol.NewRegisterConsensus(2, 3)
	rep := Check(p, []int64{0, 1}, Options{MaxConfigs: 1 << 22})
	requireClean(t, rep, p.Name())
	if !rep.Decisions[0] || !rep.Decisions[1] {
		t.Errorf("decisions = %v, want both reachable", rep.Decisions)
	}
}

func TestStickyConsensusClean(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		rep := CheckAllInputs(protocol.StickyConsensus{}, n, Options{})
		requireClean(t, rep, "sticky-consensus")
	}
}

func TestScanMachinesInconsistent(t *testing.T) {
	// Every generated scan machine is a solo-terminating protocol over
	// few historyless objects, hence necessarily unsafe (Theorem 3.7):
	// at r=1 the checker finds the violation directly.
	found := 0
	for seed := uint64(1); seed <= 8; seed++ {
		m := protocol.GenerateScanMachine(1, seed)
		rep := CheckAllInputs(m, 3, Options{MaxConfigs: 1 << 20})
		if rep.Violation != nil && rep.Violation.Kind == Consistency {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no generated machine exhibited a violation at r=1, n=3")
	}
}

// TestSpillAuxRoundTrip: the caller state a spill manifest carries — the
// workers' merged decisions and successor count — restores into worker
// 0, and a checksum-valid aux whose decision count claims more values
// than it has bytes is refused before the count sizes anything.  A
// count taken on trust here asked the runtime for 2^40 decisions, an
// out-of-memory crash no recover can catch.
func TestSpillAuxRoundTrip(t *testing.T) {
	newTier := func() *spillTier {
		ws := make([]swork, 2)
		for i := range ws {
			ws[i].decisions = make(map[int64]bool)
		}
		return &spillTier{ws: ws}
	}
	from := newTier()
	from.ws[0].decisions[1] = true
	from.ws[1].decisions[0] = true
	from.ws[1].decisions[1] = true
	from.ws[0].generated, from.ws[1].generated = 5, 7
	to := newTier()
	if err := to.restoreAux(from.encodeAux()); err != nil {
		t.Fatal(err)
	}
	if w := to.ws[0]; len(w.decisions) != 2 || !w.decisions[0] || !w.decisions[1] || w.generated != 12 {
		t.Fatalf("restored decisions %v, generated %d; want {0, 1} and 12", w.decisions, w.generated)
	}

	huge := append(binary.AppendUvarint(nil, 1<<40), 0) // 2^40 decisions, then a zero generated count
	const want = "decisions len 1099511627776 exceeds the 1 bytes left in payload"
	if err := newTier().restoreAux(huge); err == nil || err.Error() != want {
		t.Fatalf("aux claiming 2^40 decisions: err %v, want %q", err, want)
	}
	if err := newTier().restoreAux(append(from.encodeAux(), 0)); err == nil {
		t.Fatal("aux with a trailing byte restored")
	}
}

// TestBudgetStopsPinned pins where MaxConfigs stops the serial engine
// and Bivalence, in configurations and retained key bytes.  A key must
// be tested against the budget before it is admitted: an engine that
// admits first reports one configuration past MaxConfigs.  Bivalence
// tests its budget when it dequeues a configuration, so it stops after
// admitting every successor of the expansion that crossed MaxConfigs.
func TestBudgetStopsPinned(t *testing.T) {
	p := protocol.NewCounterWalk(3)
	inputs := []int64{0, 1, 0}
	for _, tc := range []struct {
		name     string
		opts     Options
		configs  int
		keyBytes int64
	}{
		{"max-configs", Options{MaxConfigs: 1000}, 1000, 22026},
		{"max-configs-nosym", Options{MaxConfigs: 1000, NoSymmetry: true}, 1000, 21840},
	} {
		rep := Check(p, inputs, tc.opts)
		if rep.Complete || rep.Violation != nil || rep.Configs != tc.configs || rep.Stats.KeyBytes != tc.keyBytes {
			t.Errorf("%s: complete=%v violation=%v configs=%d keyBytes=%d; want incomplete, no violation, %d configs, %d key bytes",
				tc.name, rep.Complete, rep.Violation, rep.Configs, rep.Stats.KeyBytes, tc.configs, tc.keyBytes)
		}
	}
	for _, tc := range []struct{ budget, configs int }{{10, 13}, {1000, 1001}} {
		rep, err := Bivalence(p, inputs, Options{MaxConfigs: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Complete || rep.Configs != tc.configs {
			t.Errorf("Bivalence MaxConfigs %d: complete=%v configs=%d; want incomplete, %d configs",
				tc.budget, rep.Complete, rep.Configs, tc.configs)
		}
	}
}
