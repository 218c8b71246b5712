package hierarchy

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
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

func (s refState) Key() string { return fmt.Sprintf("m%d", s.state) }

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

// TestSoloFilterMatchesPerMachine: for every machine of every class with
// one or two free states, and every machine of seeded subtrees of the
// three-state register class, the table-wide solo filter passes exactly
// the machines the per-machine prefilter passes; and after every table
// the filter's reused scratch configuration is the initial one again,
// apart from P0's state.
func TestSoloFilterMatchesPerMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	reg, sticky, tas := object.RegisterType{}, object.StickyBitType{}, object.TestAndSetType{}
	subtrees := 2
	if testing.Short() {
		subtrees = 1
	}
	for _, tc := range []struct {
		typ  object.Type
		free int
		// subtrees is how many seeded free-state-0 subtrees to check; 0
		// checks the whole class.
		subtrees int
	}{
		{reg, 1, 0}, {sticky, 1, 0}, {tas, 1, 0},
		{reg, 2, 0}, {sticky, 2, 0}, {tas, 2, 0},
		{reg, 3, subtrees},
	} {
		name := fmt.Sprintf("%s F=%d", tc.typ.Name(), tc.free)
		d, count, err := classSize(tc.typ, tc.free)
		if err != nil {
			t.Fatal(err)
		}
		specs := buildSpecs(d, tc.free+2)
		roots := []int{-1} // the whole class
		if tc.subtrees > 0 {
			roots = rng.Perm(len(specs))[:tc.subtrees]
		}
		f := newSoloFilter(tc.typ, tc.free)
		fresh := sim.NewConfig(Machine{Type: tc.typ}, []int64{0, 0})
		p1 := f.c.States[1]
		var enumerated, passed int
		for _, root := range roots {
			var prefix []actionSpec
			var baseID uint64
			if root >= 0 {
				prefix, baseID = specs[root:root+1], uint64(root)*(count/uint64(len(specs)))
			}
			enumerateSubtree(tc.typ, specs, tc.free, prefix, baseID, func(states []machineState) {
				f.load(states)
				c := f.c
				if !reflect.DeepEqual(c.Objects, fresh.Objects) || !reflect.DeepEqual(c.Decided, fresh.Decided) ||
					!reflect.DeepEqual(c.Decision, fresh.Decision) || !reflect.DeepEqual(c.Steps, fresh.Steps) ||
					c.States[1] != p1 {
					t.Fatalf("%s: scratch configuration not restored after a table: %+v", name, c)
				}
			}, func(m Machine) {
				enumerated++
				got, want := f.passes(m.Start0, m.Start1), refPrefilter(m)
				if got != want {
					t.Fatalf("%s id=%d: table filter passes %v, per-machine prefilter %v", name, m.ID(), got, want)
				}
				if got {
					passed++
				}
			})
		}
		if tc.subtrees == 0 && uint64(enumerated) != count {
			t.Fatalf("%s: enumerated %d machines, MachineCount says %d", name, enumerated, count)
		}
		t.Logf("%s: %d machines, %d pass the solo prefilter", name, enumerated, passed)
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
