package protocol

import (
	"testing"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// requireNST checks the nondeterministic solo termination property (§2)
// on a sample of reachable configurations: from the initial configuration
// and from configurations reached by seeded random runs of a bounded
// number of steps, every live process must have a finite deciding solo
// execution.
func requireNST(t *testing.T, proto sim.Protocol, inputs []int64, maxSolo int) {
	t.Helper()
	configs := []*sim.Config{sim.NewConfig(proto, inputs)}
	// Sample mid-run configurations with a few seeds and prefixes.
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := sim.Run(proto, inputs, seed, sim.RunOptions{RecordExec: true})
		if err != nil {
			t.Fatalf("sampling run: %v", err)
		}
		for _, cut := range []int{1, len(res.Exec) / 3, 2 * len(res.Exec) / 3} {
			if cut <= 0 || cut >= len(res.Exec) {
				continue
			}
			c := sim.NewConfig(proto, inputs)
			if err := c.Apply(res.Exec[:cut]); err != nil {
				t.Fatalf("prefix replay: %v", err)
			}
			configs = append(configs, c)
		}
	}
	for i, c := range configs {
		for pid := 0; pid < c.N(); pid++ {
			if c.Pending(pid).Kind == sim.ActHalt {
				continue
			}
			if _, ok := sim.SoloDecision(c, pid, maxSolo); !ok {
				t.Fatalf("config %d: P%d has no deciding solo execution within %d steps: NST violated",
					i, pid, maxSolo)
			}
		}
	}
}

func TestFloodNST(t *testing.T) {
	for _, f := range []Flood{
		NewRegisterFlood(3),
		NewSwapFlood(3),
		NewMixedFlood(3),
		{Types: NewRegisterFlood(3).Types, OrderByPref: true},
	} {
		requireNST(t, f, []int64{0, 1, 0, 1}, 200)
	}
}

func TestWalkAndPackedNST(t *testing.T) {
	requireNST(t, NewCounterWalk(3), []int64{0, 1, 1}, 5000)
	requireNST(t, NewPackedFetchAdd(3), []int64{0, 1, 1}, 5000)
}

func TestRegisterConsensusNST(t *testing.T) {
	requireNST(t, NewRegisterConsensus(3, 1<<20), []int64{0, 1, 1}, 5000)
}

func TestSimpleProtocolsNST(t *testing.T) {
	requireNST(t, CASConsensus{}, []int64{0, 1}, 10)
	requireNST(t, NewTAS2(), []int64{0, 1}, 10)
	requireNST(t, NewSwap2(), []int64{0, 1}, 10)
	requireNST(t, NewFetchAdd2(), []int64{0, 1}, 10)
	requireNST(t, RegisterNaive2{}, []int64{0, 1}, 10)
}

func TestFloodSoloDecidesOwnInput(t *testing.T) {
	for _, f := range []Flood{NewRegisterFlood(2), NewSwapFlood(4), NewMixedFlood(3)} {
		for _, input := range []int64{0, 1} {
			c := sim.NewConfig(f, []int64{input, 1 - input})
			exec, decision, ok := sim.SoloTerminate(c, 0, 500)
			if !ok {
				t.Fatalf("%s: no solo termination", f.Name())
			}
			if decision != input {
				t.Fatalf("%s: solo run decided %d, want own input %d", f.Name(), decision, input)
			}
			// A solo flood performs exactly r nontrivial ops (one per
			// object) plus scans.
			writes := 0
			types := f.Objects()
			for _, ev := range exec {
				if ev.Action.Kind == sim.ActOperate && !object.Trivial(types[ev.Action.Obj], ev.Action.Op.Kind) {
					writes++
				}
			}
			if writes != len(f.Types) {
				t.Fatalf("%s: solo run made %d nontrivial ops, want %d", f.Name(), writes, len(f.Types))
			}
		}
	}
}

func TestFloodOrderByPrefFirstWrite(t *testing.T) {
	f := NewRegisterFlood(3)
	f.OrderByPref = true
	// Preference 0 floods R0 first; preference 1 floods R2 first.
	for _, tc := range []struct {
		input int64
		first int
	}{{0, 0}, {1, 2}} {
		c := sim.NewConfig(f, []int64{tc.input})
		exec, _, ok := sim.SoloTerminate(c, 0, 500)
		if !ok {
			t.Fatal("no solo termination")
		}
		for _, ev := range exec {
			if ev.Action.Kind == sim.ActOperate && ev.Action.Op.Kind == object.Write {
				if ev.Action.Obj != tc.first {
					t.Fatalf("input %d: first write to R%d, want R%d", tc.input, ev.Action.Obj, tc.first)
				}
				break
			}
		}
	}
}

func TestCounterWalkSoloSteps(t *testing.T) {
	// A solo input-0 process never sees an announced 1, so it marches
	// monotonically down: announce + 3n moves + reads, no coin flips.
	p := NewCounterWalk(4)
	c := sim.NewConfig(p, []int64{0})
	exec, decision, ok := sim.SoloTerminate(c, 0, 10000)
	if !ok {
		t.Fatal("no solo termination")
	}
	if decision != 0 {
		t.Fatalf("solo input-0 walk decided %d", decision)
	}
	for _, ev := range exec {
		if ev.Action.Kind == sim.ActFlip {
			t.Fatal("solo unanimous walk should never flip a coin")
		}
	}
}

func TestPackedFieldRoundTrip(t *testing.T) {
	for _, tc := range []struct{ a, b, k int64 }{
		{0, 0, 0}, {1, 0, 0}, {0, 5, -3}, {100, 200, 47}, {0, 1, -16},
	} {
		w := pack(tc.a, tc.b, tc.k)
		a, b, k := unpack(w)
		if a != tc.a || b != tc.b || k != tc.k {
			t.Errorf("pack/unpack(%d,%d,%d) = (%d,%d,%d)", tc.a, tc.b, tc.k, a, b, k)
		}
	}
}

func TestPackedFieldIncrements(t *testing.T) {
	// Field units must add independently: adding unitC1 changes only b.
	w := pack(3, 4, -2)
	w += unitC1
	a, b, k := unpack(w)
	if a != 3 || b != 5 || k != -2 {
		t.Fatalf("after +unitC1: (%d,%d,%d)", a, b, k)
	}
	w -= unitCursor
	a, b, k = unpack(w)
	if a != 3 || b != 5 || k != -3 {
		t.Fatalf("after -unitCursor: (%d,%d,%d)", a, b, k)
	}
}

func TestRegisterConsensusPacking(t *testing.T) {
	r, v := unpackA(packA(77, 1))
	if r != 77 || v != 1 {
		t.Fatalf("packA round trip: (%d,%d)", r, v)
	}
	rr, flag, vv := unpackB(packB(123, true, 0))
	if rr != 123 || !flag || vv != 0 {
		t.Fatalf("packB round trip: (%d,%v,%d)", rr, flag, vv)
	}
	rr, flag, vv = unpackB(packB(9, false, 1))
	if rr != 9 || flag || vv != 1 {
		t.Fatalf("packB round trip: (%d,%v,%d)", rr, flag, vv)
	}
}

func TestProtocolMetadata(t *testing.T) {
	cases := []struct {
		p         sim.Protocol
		objects   int
		identical bool
	}{
		{NewRegisterFlood(4), 4, true},
		{NewSwapFlood(2), 2, true},
		{NewMixedFlood(5), 5, true},
		{CASConsensus{}, 1, true},
		{NewTAS2(), 3, false},
		{RegisterNaive2{}, 2, false},
		{NewCounterWalk(6), 3, true},
		{NewPackedFetchAdd(6), 1, true},
		{NewRegisterConsensus(6, 10), 14, false},
	}
	for _, tc := range cases {
		if got := len(tc.p.Objects()); got != tc.objects {
			t.Errorf("%s: %d objects, want %d", tc.p.Name(), got, tc.objects)
		}
		if got := tc.p.Identical(); got != tc.identical {
			t.Errorf("%s: Identical() = %v, want %v", tc.p.Name(), got, tc.identical)
		}
		if err := sim.Validate(tc.p, 2); err != nil {
			t.Errorf("%s: %v", tc.p.Name(), err)
		}
	}
}

func TestRegisterConsensusSimRuns(t *testing.T) {
	// Seeded random whole-protocol runs of the simulator twin: decisions
	// must always be consistent and valid.
	p := NewRegisterConsensus(4, 1<<20)
	res, err := sim.Sample(p, []int64{0, 1, 1, 0}, 30, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistent != 0 {
		t.Fatalf("%d/%d runs inconsistent", res.Inconsistent, res.Trials)
	}
	t.Logf("register consensus n=4: mean %.0f steps, max %d, decisions %v",
		res.MeanSteps, res.MaxSteps, res.Decisions)
}

func TestCounterWalkSimRuns(t *testing.T) {
	p := NewCounterWalk(5)
	res, err := sim.Sample(p, []int64{0, 1, 0, 1, 1}, 30, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistent != 0 {
		t.Fatalf("%d/%d runs inconsistent", res.Inconsistent, res.Trials)
	}
}

func TestFloodSimRunsShowInconsistency(t *testing.T) {
	// Flood is not a consensus protocol; random runs at small r expose it
	// without any adversary.
	p := NewRegisterFlood(1)
	res, err := sim.Sample(p, []int64{0, 1, 0, 1}, 200, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistent == 0 {
		t.Skip("random runs happened to stay consistent; the adversary tests cover the guarantee")
	}
}

func TestScanMachineNST(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		m := GenerateScanMachine(1+int(seed)%3, seed)
		requireNST(t, m, []int64{0, 1, 1, 0}, 2000)
	}
}

func TestScanMachineSoloDecidesOwnInput(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		m := GenerateScanMachine(2+int(seed)%2, seed)
		for _, input := range []int64{0, 1} {
			c := sim.NewConfig(m, []int64{input, 1 - input})
			decision, ok := sim.SoloDecision(c, 0, 2000)
			if !ok {
				t.Fatalf("%s: no solo termination", m.Name())
			}
			if decision != input {
				t.Fatalf("%s: solo decided %d, want %d", m.Name(), decision, input)
			}
		}
	}
}

func TestScanMachineDeterministicPerSeed(t *testing.T) {
	a := GenerateScanMachine(3, 42)
	b := GenerateScanMachine(3, 42)
	if a.Name() != b.Name() {
		t.Fatal("same seed must produce the same machine name")
	}
	for p := 0; p < 2; p++ {
		if len(a.Program[p]) != len(b.Program[p]) {
			t.Fatal("same seed must produce the same program")
		}
		for i := range a.Program[p] {
			if a.Program[p][i] != b.Program[p][i] {
				t.Fatal("same seed must produce the same program")
			}
		}
	}
}
