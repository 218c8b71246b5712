package hierarchy

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// TestDomainClosure: from the type's initial value, the domain's ops reach
// exactly the domain's values, and every response an op returns from a
// reachable value lies in its response domain and below respSlots.  The
// solo walk's budget (soloBound) counts on the first; compile's slot maps
// on the second.
func TestDomainClosure(t *testing.T) {
	for _, tc := range []struct {
		typ object.Type
		d   domain
	}{
		{object.RegisterType{}, registerDomain},
		{object.StickyBitType{}, stickyDomain},
		{object.TestAndSetType{}, tasDomain},
	} {
		if d, err := domainFor(tc.typ); err != nil || !reflect.DeepEqual(d, tc.d) {
			t.Fatalf("%s: domainFor = %+v, %v", tc.typ.Name(), d, err)
		}
		reached := map[int64]bool{tc.typ.Init(): true}
		frontier := []int64{tc.typ.Init()}
		for len(frontier) > 0 {
			v := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for i, op := range tc.d.ops {
				next, resp := tc.typ.Apply(v, op)
				if resp < 0 || resp >= respSlots || tc.d.responseIndex(op, resp) < 0 {
					t.Errorf("%s: %v on value %d responds %d, outside %v (or respSlots %d)",
						tc.typ.Name(), op, v, resp, tc.d.resps[i], respSlots)
				}
				if !reached[next] {
					reached[next] = true
					frontier = append(frontier, next)
				}
			}
		}
		var got []int64
		for v := range reached {
			got = append(got, v)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := append([]int64(nil), tc.d.values...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the ops reach values %v from %d, domain says %v", tc.typ.Name(), got, tc.typ.Init(), want)
		}
	}
}

// TestSoloBound pins the prefilter's per-class step budget,
// min(64, F·|values| + 1).
func TestSoloBound(t *testing.T) {
	for _, tc := range []struct {
		typ  object.Type
		free int
		want int
	}{
		{object.RegisterType{}, 1, 4},
		{object.RegisterType{}, 2, 7},
		{object.StickyBitType{}, 2, 7},
		{object.TestAndSetType{}, 2, 5},
		{object.RegisterType{}, 3, 10},
		{object.RegisterType{}, 21, 64},
		{object.RegisterType{}, 22, 64},
		{object.CASType{}, 2, 64},
	} {
		if got := soloBound(tc.typ, tc.free); got != tc.want {
			t.Errorf("%s F=%d: soloBound = %d, want %d", tc.typ.Name(), tc.free, got, tc.want)
		}
	}
}

// TestSoloWalksWithinBound: over every table of the six classes with one
// or two free states, no solo run that decides within the literal
// 64-step budget takes more than the class's soloBound steps — the bound
// loses no decision the old budget found.
func TestSoloWalksWithinBound(t *testing.T) {
	for _, typ := range []object.Type{object.RegisterType{}, object.StickyBitType{}, object.TestAndSetType{}} {
		for free := 1; free <= 2; free++ {
			name := fmt.Sprintf("%s F=%d", typ.Name(), free)
			d, err := domainFor(typ)
			if err != nil {
				t.Fatal(err)
			}
			bound := soloBound(typ, free)
			c := sim.NewConfig(Machine{Type: typ}, []int64{0, 0})
			var walks, deciding, longest int
			enumerateSubtree(typ, buildSpecs(d, free+2), free, nil, 0, func(states []machineState) {
				for s := 0; s < free; s++ {
					c.SetState(0, &states[s])
					exec, _, ok := sim.SoloTerminate(c, 0, maxSoloBudget)
					walks++
					if !ok {
						continue
					}
					deciding++
					longest = max(longest, len(exec))
					if len(exec) > bound {
						t.Fatalf("%s: a solo run from S%d decides in %d steps, over the bound %d:\n%s",
							name, s, len(exec), bound, exec)
					}
				}
			}, func(Machine) {})
			t.Logf("%s: %d walks, %d decide, longest %d steps (bound %d)", name, walks, deciding, longest, bound)
		}
	}
}

// TestSearchExampleIsOwned: the Result.Example a search reports, read
// after the sweep has moved on through every later table, is exactly
// MachineByID's machine — field for field, compiled table included — and
// still solves, for the serial and the fanned-out search alike.
func TestSearchExampleIsOwned(t *testing.T) {
	typ := object.StickyBitType{}
	for _, workers := range []int{1, 2} {
		res, err := SearchWith(typ, 2, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Example == nil || res.Example.ID() != 26863 {
			t.Fatalf("workers=%d: example %+v, want id 26863", workers, res.Example)
		}
		want, err := MachineByID(typ, 2, res.Example.ID())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*res.Example, want) {
			t.Fatalf("workers=%d: example differs from MachineByID:\n%+v\n%+v", workers, *res.Example, want)
		}
		if !solves(Options{}, *res.Example) {
			t.Fatalf("workers=%d: the reported example no longer solves", workers)
		}
	}
}
