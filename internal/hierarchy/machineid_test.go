package hierarchy

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"randsync/internal/object"
)

// TestMachineByIDRoundTrip: for every machine the canonical enumeration
// visits, MachineByID(id) reconstructs the identical machine — same
// action tables, same start states, same id, and a freshly compiled step
// table equal to the one the enumeration compiled into its scratch
// table — so a wire-format (type, freeStates, id) triple names a machine
// unambiguously.
func TestMachineByIDRoundTrip(t *testing.T) {
	for _, typ := range []object.Type{object.RegisterType{}, object.StickyBitType{}, object.TestAndSetType{}} {
		for freeStates := 1; freeStates <= 2; freeStates++ {
			if freeStates == 2 && typ.Name() != "test&set" {
				continue // keep the full sweep to the smallest enumerations
			}
			d, err := domainFor(typ)
			if err != nil {
				t.Fatal(err)
			}
			specs := buildSpecs(d, freeStates+2)
			count, err := MachineCount(typ, freeStates)
			if err != nil {
				t.Fatal(err)
			}
			var visited uint64
			enumerateSubtree(typ, specs, freeStates, nil, 0, nil, func(m Machine) {
				visited++
				got, err := MachineByID(typ, freeStates, m.id)
				if err != nil {
					t.Fatalf("%s F=%d id=%d: %v", typ.Name(), freeStates, m.id, err)
				}
				if got.id != m.id || got.Start0 != m.Start0 || got.Start1 != m.Start1 ||
					!reflect.DeepEqual(got.Free, m.Free) || !reflect.DeepEqual(got.states, m.states) {
					t.Fatalf("%s F=%d id=%d: MachineByID mismatch:\nenumerated %+v\nrebuilt    %+v",
						typ.Name(), freeStates, m.id, m, got)
				}
			})
			if visited != count {
				t.Errorf("%s F=%d: enumerated %d machines, MachineCount says %d", typ.Name(), freeStates, visited, count)
			}
			if _, err := MachineByID(typ, freeStates, 0); err == nil {
				t.Error("id 0 accepted")
			}
			if _, err := MachineByID(typ, freeStates, count+1); err == nil {
				t.Error("id beyond MachineCount accepted")
			}
		}
	}
}

// TestSearchWithCheckHook: a custom Options.Check is called exactly once
// for each machine that survives both stages of the solo prefilter (8 of
// the 4 096 test&set machines with two free states), and its verdicts
// drive the Result — with the hook mirroring the local model check, the
// Result is identical to the hook-free search.
func TestSearchWithCheckHook(t *testing.T) {
	typ := object.TestAndSetType{}
	base, err := SearchWith(typ, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := map[uint64]int{}
	hooked, err := SearchWith(typ, 2, Options{Check: func(m Machine) bool {
		calls[m.ID()]++
		return solves(Options{}, m)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hooked.Enumerated != base.Enumerated || hooked.Solvers != base.Solvers {
		t.Errorf("hooked search diverged: %+v vs %+v", hooked, base)
	}
	if (hooked.Example == nil) != (base.Example == nil) {
		t.Errorf("hooked Example mismatch")
	}
	if hooked.Example != nil && hooked.Example.id != base.Example.id {
		t.Errorf("hooked Example id %d, base %d", hooked.Example.id, base.Example.id)
	}
	if len(calls) != 8 {
		t.Errorf("Check saw %d machines, want the 8 prefilter survivors", len(calls))
	}
	for id, n := range calls {
		if m, err := MachineByID(typ, 2, id); err != nil || !survives(m) || n != 1 {
			t.Errorf("Check called %d times for machine %d (err %v); want once, for a survivor", n, id, err)
		}
	}
}

// TestClassSizeRejects: MachineCount, MachineByID and SearchWith refuse a
// class with fewer than one free state, with more than maxSpecs action
// specs per state, or whose machine count overflows a uint64 — with an
// error, before building anything — and still count the largest classes
// that fit.
func TestClassSizeRejects(t *testing.T) {
	reg, sticky, tas := object.RegisterType{}, object.StickyBitType{}, object.TestAndSetType{}
	for _, tc := range []struct {
		typ  object.Type
		free int
		want string
	}{
		{reg, -1, "need at least 1"},
		{reg, 0, "need at least 1"},
		{reg, 1000, "action specs per state"},
		{tas, math.MaxInt, "action specs per state"},
		{sticky, 7, "overflows uint64"},
		{tas, 8, "overflows uint64"},
	} {
		name := fmt.Sprintf("%s F=%d", tc.typ.Name(), tc.free)
		if _, err := MachineCount(tc.typ, tc.free); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: MachineCount err = %v, want mention of %q", name, err, tc.want)
		}
		if _, err := MachineByID(tc.typ, tc.free, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: MachineByID err = %v, want mention of %q", name, err, tc.want)
		}
		if _, err := SearchWith(tc.typ, tc.free, Options{Workers: 2}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SearchWith err = %v, want mention of %q", name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		typ  object.Type
		free int
		want uint64
	}{
		{reg, 3, 22143375},
		{reg, 6, 528 * 528 * 528 * 528 * 528 * 528 * 36},
		{sticky, 6, 640 * 640 * 640 * 640 * 640 * 640 * 36},
		{tas, 7, 162 * 162 * 162 * 162 * 162 * 162 * 162 * 49},
	} {
		if got, err := MachineCount(tc.typ, tc.free); err != nil || got != tc.want {
			t.Errorf("%s F=%d: MachineCount = %d, %v; want %d", tc.typ.Name(), tc.free, got, err, tc.want)
		}
	}
}
