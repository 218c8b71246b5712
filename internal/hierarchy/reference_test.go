package hierarchy

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"randsync/internal/object"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

// refMachine is the differential reference for the compiled machine: the
// machine as it stood before step tables, with value-typed states that
// look their response up in the type's domain on every step.
type refMachine struct{ m Machine }

func (r refMachine) Name() string           { return r.m.Name() }
func (r refMachine) Objects() []object.Type { return r.m.Objects() }
func (refMachine) Identical() bool          { return true }

func (r refMachine) Init(pid, n int, input int64) sim.State {
	start := r.m.Start0
	if input == 1 {
		start = r.m.Start1
	}
	return refState{m: r.m, state: start}
}

type refState struct {
	m     Machine
	state int
}

func (s refState) Action() sim.Action {
	switch s.state {
	case s.m.decide0State():
		return sim.Action{Kind: sim.ActDecide, Value: 0}
	case s.m.decide1State():
		return sim.Action{Kind: sim.ActDecide, Value: 1}
	}
	return sim.Action{Kind: sim.ActOperate, Obj: 0, Op: s.m.Free[s.state].op}
}

func (s refState) Advance(result int64) sim.State {
	if s.state >= len(s.m.Free) {
		return sim.Halted{}
	}
	spec := s.m.Free[s.state]
	d, _ := domainFor(s.m.Type)
	idx := d.responseIndex(spec.op, result)
	if idx < 0 || idx >= len(spec.next) {
		return s
	}
	s.state = spec.next[idx]
	return s
}

func (s refState) AppendKey(buf []byte) []byte {
	buf = append(buf, machineKeyTag)
	return binary.AppendVarint(buf, int64(s.state))
}

// refSolves is solves over any protocol, for the reference.
func refSolves(p sim.Protocol) bool {
	for _, input := range []int64{0, 1} {
		c := sim.NewConfig(p, []int64{input, input})
		_, decision, ok := sim.SoloTerminate(c, 0, 64)
		if !ok || decision != input {
			return false
		}
	}
	rep := valency.CheckAllInputs(p, 2, valency.Options{MaxConfigs: 1 << 12})
	return rep.Violation == nil && rep.Complete && !rep.Livelock
}

// refPrefilter is the search's solo prefilter as it stood before whole
// tables were filtered at once: for each input, a fresh unanimous
// configuration of the machine and one solo walk of P0.
func refPrefilter(m Machine) bool {
	for _, input := range []int64{0, 1} {
		c := sim.NewConfig(m, []int64{input, input})
		decision, ok := sim.SoloDecision(c, 0, 64)
		if !ok || decision != input {
			return false
		}
	}
	return true
}

// refAgrees is the prefilter's agreement stage per machine: on a fresh
// configuration with inputs (0, 1), the first process's solo run to its
// decision, replayed with Apply, and then the second process's solo walk
// must decide one value, with P0 first and with P1 first.
func refAgrees(m Machine) bool {
	for _, first := range []int{0, 1} {
		c := sim.NewConfig(m, []int64{0, 1})
		exec, decision, ok := sim.SoloTerminate(c, first, 64)
		if !ok {
			return false
		}
		if err := c.Apply(exec); err != nil {
			panic(fmt.Sprintf("%s: replaying P%d's solo run: %v", m.Name(), first, err))
		}
		if second, ok := sim.SoloDecision(c, 1-first, 64); !ok || second != decision {
			return false
		}
	}
	return true
}

// diffClass is one class the prefilter differentials enumerate.
type diffClass struct {
	name  string
	typ   object.Type
	free  int
	count uint64
	specs []actionSpec
	// roots are the free-state-0 specs heading the subtrees to check; nil
	// checks the whole class.
	roots []int
}

// diffClasses returns every class with one or two free states, and
// seeded free-state-0 subtrees of the three-state register class (one
// with -short, two otherwise).
func diffClasses(t *testing.T) []diffClass {
	rng := rand.New(rand.NewSource(29))
	reg, sticky, tas := object.RegisterType{}, object.StickyBitType{}, object.TestAndSetType{}
	subtrees := 2
	if testing.Short() {
		subtrees = 1
	}
	var classes []diffClass
	for _, tc := range []struct {
		typ      object.Type
		free     int
		subtrees int // 0: the whole class
	}{
		{reg, 1, 0}, {sticky, 1, 0}, {tas, 1, 0},
		{reg, 2, 0}, {sticky, 2, 0}, {tas, 2, 0},
		{reg, 3, subtrees},
	} {
		d, count, err := classSize(tc.typ, tc.free)
		if err != nil {
			t.Fatal(err)
		}
		dc := diffClass{name: fmt.Sprintf("%s F=%d", tc.typ.Name(), tc.free), typ: tc.typ, free: tc.free,
			count: count, specs: buildSpecs(d, tc.free+2)}
		if tc.subtrees > 0 {
			dc.roots = rng.Perm(len(dc.specs))[:tc.subtrees]
		}
		classes = append(classes, dc)
	}
	return classes
}

// enumerate runs enumerateSubtree over the class's subtrees and returns
// how many machines it visited; a whole class must visit MachineCount.
func (dc diffClass) enumerate(t *testing.T, table func([]machineState), visit func(Machine)) int {
	n := 0
	count := func(m Machine) { n++; visit(m) }
	if dc.roots == nil {
		enumerateSubtree(dc.typ, dc.specs, dc.free, nil, 0, table, count)
		if uint64(n) != dc.count {
			t.Fatalf("%s: enumerated %d machines, MachineCount says %d", dc.name, n, dc.count)
		}
		return n
	}
	perSub := dc.count / uint64(len(dc.specs))
	for _, root := range dc.roots {
		enumerateSubtree(dc.typ, dc.specs, dc.free, dc.specs[root:root+1], uint64(root)*perSub, table, count)
	}
	return n
}

// TestSoloFilterMatchesPerMachine: for every machine of every class with
// one or two free states, and every machine of seeded subtrees of the
// three-state register class, the table-wide unanimous stage passes
// exactly the machines the per-machine prefilter passes; and after every
// table, both stages included, the filter's reused scratch configuration
// is the initial one again, apart from P0's state.
func TestSoloFilterMatchesPerMachine(t *testing.T) {
	for _, dc := range diffClasses(t) {
		f := newSoloFilter(dc.typ, dc.free)
		fresh := sim.NewConfig(Machine{Type: dc.typ}, []int64{0, 0})
		p1 := f.c.States[1]
		restored := func() {
			c := f.c
			if !reflect.DeepEqual(c.Objects, fresh.Objects) || !reflect.DeepEqual(c.Decided, fresh.Decided) ||
				!reflect.DeepEqual(c.Decision, fresh.Decision) || !reflect.DeepEqual(c.Steps, fresh.Steps) ||
				c.States[1] != p1 {
				t.Fatalf("%s: scratch configuration not restored after a table: %+v", dc.name, c)
			}
		}
		var passed int
		enumerated := dc.enumerate(t, func(states []machineState) {
			restored() // after the previous table's agreement runs
			f.load(states)
			restored()
		}, func(m Machine) {
			got, want := f.unanimous(m.Start0, m.Start1), refPrefilter(m)
			if got != want {
				t.Fatalf("%s id=%d: table filter passes %v, per-machine prefilter %v", dc.name, m.ID(), got, want)
			}
			if got {
				passed++
				f.passes(m.Start0, m.Start1)
			}
		})
		restored()
		t.Logf("%s: %d machines, %d pass the unanimous stage", dc.name, enumerated, passed)
	}
}

// TestAgreementFilterMatchesReference: over the same machines as
// TestSoloFilterMatchesPerMachine, the table filter's agreement stage
// answers exactly as the per-machine reference, refAgrees, and the whole
// filter passes exactly what refPrefilter and refAgrees both pass.  The
// stage is sound: every unanimous survivor it rejects fails the full
// model check.  The funnel of the two-free-state classes is pinned, and
// a Workers: 2 search hands exactly the survivors to Options.Check (the
// race pass runs this test, so a filter shared between workers fails
// here by name).
func TestAgreementFilterMatchesReference(t *testing.T) {
	type funnel struct{ unanimous, agreeing int }
	want := map[string]funnel{
		"register F=1": {0, 0}, "sticky-bit F=1": {0, 0}, "test&set F=1": {0, 0},
		"register F=2": {680, 0}, "sticky-bit F=2": {1316, 36}, "test&set F=2": {212, 8},
	}
	for _, dc := range diffClasses(t) {
		f := newSoloFilter(dc.typ, dc.free)
		var got funnel
		enumerated := dc.enumerate(t, f.load, func(m Machine) {
			agrees, ref := f.agrees(m.Start0, m.Start1), refAgrees(m)
			if agrees != ref {
				t.Fatalf("%s id=%d: table agreement stage %v, reference %v", dc.name, m.ID(), agrees, ref)
			}
			unanimous := f.unanimous(m.Start0, m.Start1)
			if passes := f.passes(m.Start0, m.Start1); passes != (refPrefilter(m) && ref) {
				t.Fatalf("%s id=%d: table filter passes %v, reference %v", dc.name, m.ID(), passes, !passes)
			}
			if !unanimous {
				return
			}
			got.unanimous++
			if agrees {
				got.agreeing++
			} else if (Options{}).check(m) {
				t.Fatalf("%s id=%d: the agreement stage rejects a solver:\n%s", dc.name, m.ID(), Describe(m))
			}
		})
		t.Logf("%s: %d machines, %d pass the unanimous stage, %d the agreement stage",
			dc.name, enumerated, got.unanimous, got.agreeing)
		if w, ok := want[dc.name]; ok && got != w {
			t.Errorf("%s: funnel %d → %d, want %d → %d", dc.name, got.unanimous, got.agreeing, w.unanimous, w.agreeing)
		}
	}

	for _, tc := range []struct {
		typ                object.Type
		survivors, solvers int
	}{
		{object.RegisterType{}, 0, 0},
		{object.StickyBitType{}, 36, 36},
		{object.TestAndSetType{}, 8, 0},
	} {
		var calls atomic.Int64
		res, err := SearchWith(tc.typ, 2, Options{Workers: 2, Check: func(m Machine) bool {
			calls.Add(1)
			return Options{}.check(m)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if int(calls.Load()) != tc.survivors || res.Solvers != tc.solvers {
			t.Errorf("%s F=2 Workers: 2: %d checks, %d solvers; want %d, %d",
				tc.typ.Name(), calls.Load(), res.Solvers, tc.survivors, tc.solvers)
		}
	}
}

// verdict is a report stripped of its performance telemetry.
func verdict(rep *valency.Report) valency.Report {
	v := *rep
	v.Stats = nil
	return v
}

// TestCompiledMachineMatchesReference: for a seeded sample of machines of
// every class, every sticky-bit solver, and a sample of three-state
// register machines, the compiled machine and the reference give the
// identical CheckAllInputs verdict — configurations, completeness,
// livelock, decisions, and the violation's kind, detail and trace — and
// the same solves answer.
func TestCompiledMachineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	type target struct {
		typ  object.Type
		free int
		id   uint64
	}
	var targets []target
	sample := func(typ object.Type, free, k int) {
		count, err := MachineCount(typ, free)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			targets = append(targets, target{typ, free, 1 + uint64(rng.Int63n(int64(count)))})
		}
	}
	k := 1000
	if testing.Short() {
		k = 100
	}
	sample(object.RegisterType{}, 2, k)
	sample(object.StickyBitType{}, 2, k)
	sample(object.TestAndSetType{}, 2, k)
	sample(object.RegisterType{}, 3, k/3)

	// Every sticky-bit solver, collected through the Check hook.
	var solvers []uint64
	res, err := SearchWith(object.StickyBitType{}, 2, Options{Check: func(m Machine) bool {
		ok := solves(Options{}, m)
		if ok {
			solvers = append(solvers, m.ID())
		}
		return ok
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(solvers) != 36 || res.Solvers != 36 {
		t.Fatalf("sticky solvers: %d collected, %d counted; want 36", len(solvers), res.Solvers)
	}
	for _, id := range solvers {
		targets = append(targets, target{object.StickyBitType{}, 2, id})
	}

	for _, tg := range targets {
		m, err := MachineByID(tg.typ, tg.free, tg.id)
		if err != nil {
			t.Fatal(err)
		}
		ref := refMachine{m}
		name := fmt.Sprintf("%s F=%d id=%d", tg.typ.Name(), tg.free, tg.id)
		got := verdict(valency.CheckAllInputs(m, 2, valency.Options{MaxConfigs: 1 << 12}))
		want := verdict(valency.CheckAllInputs(ref, 2, valency.Options{MaxConfigs: 1 << 12}))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: compiled verdict %+v (violation %v), reference %+v (violation %v)",
				name, got, got.Violation, want, want.Violation)
		}
		if s := solves(Options{}, m); s != refSolves(ref) {
			t.Fatalf("%s: solves %v, reference %v", name, s, !s)
		}
	}
}
