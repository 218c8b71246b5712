package hierarchy

import (
	"testing"

	"randsync/internal/object"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

// TestRegisterSearchFindsNothing is the miniature impossibility result:
// among ALL two-free-state identical-process machines over one register,
// none solves deterministic wait-free 2-process consensus ([26, 16] in
// the bounded class).
func TestRegisterSearchFindsNothing(t *testing.T) {
	res, err := Search(object.RegisterType{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("register: %d machines enumerated, %d solve consensus", res.Enumerated, res.Solvers)
	if res.Enumerated != 20736 {
		t.Fatalf("enumerated %d register machines, want 20736", res.Enumerated)
	}
	if res.Solvers != 0 {
		t.Fatalf("%d register machines claim to solve consensus; example:\n%s",
			res.Solvers, Describe(*res.Example))
	}
}

// TestStickySearchFindsSolvers: the same search over one sticky bit finds
// working machines — the hierarchy separation by exhaustive enumeration.
func TestStickySearchFindsSolvers(t *testing.T) {
	res, err := Search(object.StickyBitType{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sticky bit: %d machines enumerated, %d solve consensus", res.Enumerated, res.Solvers)
	if res.Enumerated != 36864 || res.Solvers != 36 || res.Example.ID() != 26863 {
		t.Fatalf("sticky census %d machines / %d solvers, want 36864 / 36 with example id 26863", res.Enumerated, res.Solvers)
	}
	// Re-verify the example independently, including at n=3: a sticky-bit
	// solution generalizes beyond two processes.
	ex := *res.Example
	t.Logf("example machine:\n%s", Describe(ex))
	rep := valency.CheckAllInputs(ex, 3, valency.Options{})
	if rep.Violation != nil || !rep.Complete || rep.Livelock {
		t.Fatalf("example machine fails at n=3: violation=%v complete=%v livelock=%v",
			rep.Violation, rep.Complete, rep.Livelock)
	}
}

// TestTASSearchFindsNothingAlone: one test&set object with no helper
// registers cannot solve consensus — the hierarchy's "consensus number 2"
// for test&set presumes free read-write registers to publish inputs; the
// object alone carries too little information.
func TestTASSearchFindsNothingAlone(t *testing.T) {
	res, err := Search(object.TestAndSetType{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("test&set: %d machines enumerated, %d solve consensus", res.Enumerated, res.Solvers)
	if res.Enumerated != 4096 {
		t.Fatalf("enumerated %d test&set machines, want 4096", res.Enumerated)
	}
	if res.Solvers != 0 {
		t.Fatalf("%d test&set-only machines claim to solve consensus; example:\n%s",
			res.Solvers, Describe(*res.Example))
	}
}

// TestSearchParallelMatchesSerial: the fanned-out search returns the
// same Result as the serial enumeration for every worker count — same
// counts and the same example machine (the lowest-id solver).
func TestSearchParallelMatchesSerial(t *testing.T) {
	for _, typ := range []object.Type{object.RegisterType{}, object.StickyBitType{}} {
		serial, err := Search(typ, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			par, err := SearchWith(typ, 2, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Enumerated != serial.Enumerated {
				t.Errorf("%s workers=%d: enumerated %d, serial %d",
					typ.Name(), workers, par.Enumerated, serial.Enumerated)
			}
			if par.Solvers != serial.Solvers {
				t.Errorf("%s workers=%d: solvers %d, serial %d",
					typ.Name(), workers, par.Solvers, serial.Solvers)
			}
			switch {
			case (par.Example == nil) != (serial.Example == nil):
				t.Errorf("%s workers=%d: example presence differs", typ.Name(), workers)
			case par.Example != nil:
				if par.Example.id != serial.Example.id {
					t.Errorf("%s workers=%d: example id %d, serial %d",
						typ.Name(), workers, par.Example.id, serial.Example.id)
				}
				if Describe(*par.Example) != Describe(*serial.Example) {
					t.Errorf("%s workers=%d: example machines differ", typ.Name(), workers)
				}
			}
		}
	}
}

// TestMachineSemantics pins the machine encoding itself.
func TestMachineSemantics(t *testing.T) {
	// Hand-build the canonical sticky-bit solver: S0 sticks 1, S1 sticks
	// 2; response 1 → decide0, response 2 → decide1.
	m := Machine{
		Type: object.StickyBitType{},
		Free: []actionSpec{
			{op: object.Op{Kind: object.Stick, Arg: 1}, next: []int{2, 3}},
			{op: object.Op{Kind: object.Stick, Arg: 2}, next: []int{2, 3}},
		},
		Start0: 0,
		Start1: 1,
	}
	if !solves(Options{}, m) {
		t.Fatal("canonical sticky solver should solve consensus")
	}
	rep := valency.CheckAllInputs(m, 2, valency.Options{})
	if rep.Violation != nil {
		t.Fatalf("canonical solver: %v", rep.Violation)
	}
}

// solves is the search's verdict on one machine: both stages of the solo
// prefilter from its table, then the model check.
func solves(o Options, m Machine) bool {
	return survives(m) && o.check(m)
}

// survives reports whether m survives both stages of the solo
// prefilter, loaded from its own table.
func survives(m Machine) bool {
	f := newSoloFilter(m.Type, len(m.Free))
	f.load(m.table())
	return f.passes(m.Start0, m.Start1)
}

// TestMachineStepAllocs is the allocation budget of the search's inner
// loop.  A compiled machine's steps allocate nothing, nor does the solo
// walk over them, nor does loading a table into the solo prefilter
// (register F=2 id 1's S0 reads forever, so that solo run spends its
// whole budget: soloBound's 7 steps), nor does the prefilter's agreement
// stage, passing (sticky-bit solver 26863) or rejecting (register
// machine 590, which passes the unanimous stage).  Nor does a table the
// prefilter rejects: a sweep whose every machine the prefilter rejects
// (every register machine with one free state: its two inputs share the
// start state) compiles each table into its one scratch table, so it
// allocates tableAllocs = 0 per table, plus maxSweepSetupAllocs once: 16
// measured (the prefilter's scratch sim.NewConfig and agreement undo
// buffer, the scratch table and free-state slice, the enumeration's
// closures), plus a margin of 4 for a toolchain that boxes differently.
func TestMachineStepAllocs(t *testing.T) {
	m, err := MachineByID(object.StickyBitType{}, 2, 26863)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Init(0, 2, 0)
	a := s.Action()
	if a.Kind != sim.ActOperate {
		t.Fatalf("start state action %v, want an operation", a)
	}
	_, resp := m.Type.Apply(m.Type.Init(), a.Op)
	buf := make([]byte, 0, 16)
	var next sim.State
	for name, f := range map[string]func(){
		"Action":    func() { a = s.Action() },
		"Advance":   func() { next = s.Advance(resp) },
		"AppendKey": func() { buf = s.AppendKey(buf[:0]) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, n)
		}
	}
	if next == s {
		t.Fatal("the step did not leave the start state")
	}

	rejected, err := MachineByID(object.RegisterType{}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.NewConfig(rejected, []int64{0, 0})
	var ok bool
	if n := testing.AllocsPerRun(100, func() { _, ok = sim.SoloDecision(c, 0, 64) }); n != 0 || ok {
		t.Errorf("budget-exhausting SoloDecision allocates %.0f times (ok %v), want 0 (false)", n, ok)
	}
	f := newSoloFilter(rejected.Type, len(rejected.Free))
	if n := testing.AllocsPerRun(100, func() { f.load(rejected.states) }); n != 0 || f.passes(rejected.Start0, rejected.Start1) {
		t.Errorf("loading machine 1's table allocates %.0f times (passes %v), want 0 (false)",
			n, f.passes(rejected.Start0, rejected.Start1))
	}
	disagrees, err := MachineByID(object.RegisterType{}, 2, 590)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m    Machine
		want bool
	}{{m, true}, {disagrees, false}} {
		f := newSoloFilter(tc.m.Type, len(tc.m.Free))
		f.load(tc.m.states)
		if !f.unanimous(tc.m.Start0, tc.m.Start1) {
			t.Fatalf("%s fails the unanimous stage", tc.m.Name())
		}
		var agrees bool
		if n := testing.AllocsPerRun(100, func() { agrees = f.agrees(tc.m.Start0, tc.m.Start1) }); n != 0 || agrees != tc.want {
			t.Errorf("%s: the agreement stage allocates %.0f times (agrees %v), want 0 (%v)", tc.m.Name(), n, agrees, tc.want)
		}
	}

	const tableAllocs, maxSweepSetupAllocs = 0, 20
	typ := object.RegisterType{}
	count, err := MachineCount(typ, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := buildSpecs(registerDomain, 3)
	opts := Options{Check: func(m Machine) bool {
		t.Fatalf("one-free-state register machine %d passed the prefilter", m.ID())
		return false
	}}
	n := testing.AllocsPerRun(20, func() { opts.sweep(typ, specs, 1, nil, 0, &Result{}) })
	t.Logf("all-rejecting sweep of %d tables: %.0f allocations", count, n)
	if max := float64(tableAllocs*count + maxSweepSetupAllocs); n > max {
		t.Errorf("all-rejecting sweep of %d tables allocates %.0f times, want at most %.0f", count, n, max)
	}
}

// TestResponseIndex pins the response → domain-position lookup and the
// per-op slot map buildSpecs precomputes from it, which compile reads
// instead of looking responses up.
func TestResponseIndex(t *testing.T) {
	d := registerDomain
	if d.responseIndex(object.Op{Kind: object.Read}, 2) != 2 {
		t.Error("read response 2 should be index 2")
	}
	if d.responseIndex(object.Op{Kind: object.Write, Arg: 1}, 0) != 0 {
		t.Error("write ack should be index 0")
	}
	if d.responseIndex(object.Op{Kind: object.Read}, 9) != -1 {
		t.Error("out-of-domain response should be -1")
	}
	if got, want := d.slots(object.Op{Kind: object.Write, Arg: 2}), [respSlots]int8{0, -1, -1}; got != want {
		t.Errorf("write slots %v, want %v", got, want)
	}
	if got, want := stickyDomain.slots(object.Op{Kind: object.Stick, Arg: 1}), [respSlots]int8{-1, 0, 1}; got != want {
		t.Errorf("stick slots %v, want %v", got, want)
	}
	if got, want := d.slots(object.Op{Kind: object.Write, Arg: 9}), [respSlots]int8{-1, -1, -1}; got != want {
		t.Errorf("out-of-domain op slots %v, want %v", got, want)
	}
	for _, dom := range []domain{registerDomain, stickyDomain, tasDomain} {
		for _, spec := range buildSpecs(dom, 4) {
			for r, k := range spec.slot {
				if want := dom.responseIndex(spec.op, int64(r)); int(k) != want {
					t.Fatalf("%v: slot[%d] = %d, responseIndex says %d", spec.op, r, k, want)
				}
			}
		}
	}
}

func TestDomainRejectsUnsupported(t *testing.T) {
	if _, err := Search(object.CASType{}, 2); err == nil {
		t.Fatal("expected error for type without enumeration domain")
	}
}

// TestRegisterSearchDeep pins the census of the three-free-state
// classes, each fanned out over GOMAXPROCS workers through explore.Each:
// an index the fan-out dropped or handed out twice changes these exact
// counts, and TestSearchParallelMatchesSerial pins that the worker count
// does not change the Result.  Expected cells (machines, solvers,
// lowest-id solver):
//
//   - register: 22,143,375 machines, 0 solvers (~2 s on two vCPUs);
//   - test&set: 1,125,000 machines, 0 solvers (~0.1 s, so it runs in
//     -short too);
//   - sticky-bit: 48,234,375 machines, 46,800 solvers, lowest-id solver
//     217304 (~5.5 s on two vCPUs).
//
// The register and sticky-bit rows are skipped with -short.
func TestRegisterSearchDeep(t *testing.T) {
	for _, tc := range []struct {
		typ       object.Type
		machines  int
		solvers   int
		example   uint64 // lowest-id solver; 0 when there is none
		shortAlso bool
	}{
		{object.RegisterType{}, 22143375, 0, 0, false},
		{object.TestAndSetType{}, 1125000, 0, 0, true},
		{object.StickyBitType{}, 48234375, 46800, 217304, false},
	} {
		t.Run(tc.typ.Name(), func(t *testing.T) {
			if testing.Short() && !tc.shortAlso {
				t.Skip("deep enumeration skipped in -short mode")
			}
			res, err := SearchWith(tc.typ, 3, Options{Workers: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s, 3 free states: %d machines enumerated, %d solve consensus",
				tc.typ.Name(), res.Enumerated, res.Solvers)
			if res.Enumerated != tc.machines || res.Solvers != tc.solvers {
				t.Fatalf("census %d machines / %d solvers, want %d / %d",
					res.Enumerated, res.Solvers, tc.machines, tc.solvers)
			}
			var example uint64
			if res.Example != nil {
				example = res.Example.ID()
			}
			if example != tc.example {
				t.Fatalf("lowest-id solver %d, want %d", example, tc.example)
			}
		})
	}
}
