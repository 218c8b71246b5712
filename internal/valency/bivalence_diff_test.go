package valency_test

import (
	"fmt"
	"reflect"
	"testing"

	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// TestBivalenceMatchesReference runs Bivalence and its reference (the
// map-keyed analysis it replaced, RefBivalence) on every zoo entry and
// requires every BivalenceReport field to be equal, the critical trace
// included: at n = 2 on every input vector, at n = 3 on the mixed vector
// for the entries that take three processes and finish within the
// default budget, and stopped by a budget.
func TestBivalenceMatchesReference(t *testing.T) {
	type row struct {
		spec   zoo.Spec
		inputs []int64
		budget int
	}
	var rows []row
	for _, spec := range zoo.Examples() {
		for bits := 0; bits < 1<<spec.N; bits++ {
			rows = append(rows, row{spec, valency.InputVector(bits, spec.N), 0})
		}
		rows = append(rows, row{spec, []int64{0, 1}, 10})
		switch spec.Name {
		case "cas", "sticky", "counter-walk", "packed-fetch&add", "scan-machine", "machine:sticky-bit:2:26863":
			spec.N = 3
			rows = append(rows, row{spec, []int64{0, 1, 0}, 0}, row{spec, []int64{0, 1, 0}, 1000})
		}
	}
	for _, r := range rows {
		name := fmt.Sprintf("%v/%v/budget=%d", r.spec, r.inputs, r.budget)
		p, err := zoo.Resolve(r.spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := valency.Options{MaxConfigs: r.budget}
		got, err := valency.Bivalence(p, r.inputs, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := valency.RefBivalence(p, r.inputs, opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
