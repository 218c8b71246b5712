package zoo

import (
	"testing"

	"randsync/internal/hierarchy"
	"randsync/internal/object"
	"randsync/internal/protocol"
)

// TestExamplesResolve: every name Names lists resolves at its example
// spec, and each example sets only the parameters its entry reads.
func TestExamplesResolve(t *testing.T) {
	names, specs := Names(), Examples()
	if len(names) != len(table) || len(specs) != len(table) {
		t.Fatalf("%d names, %d examples for %d entries", len(names), len(specs), len(table))
	}
	for i, spec := range specs {
		e, err := spec.entry(MaxN)
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
			continue
		}
		if e.name != names[i] {
			t.Errorf("example %s resolves through %s, want %s", spec.Name, e.name, names[i])
		}
		if _, err := Resolve(spec); err != nil {
			t.Errorf("%+v: %v", spec, err)
		}
		if (spec.R != 0 && e.reads&readsR == 0) || (spec.Rounds != 0 && e.reads&readsRounds == 0) ||
			(spec.Seed != 0 && e.reads&readsSeed == 0) {
			t.Errorf("%+v: example sets a parameter the entry does not read", spec)
		}
	}
	// scan-machine has no default seed; seed 0 is a machine like any other.
	if _, err := Resolve(Spec{Name: "scan-machine", N: 2, R: 2}); err != nil {
		t.Errorf("scan-machine at seed 0: %v", err)
	}
}

// TestRejects: unknown names, malformed machine coordinates and
// out-of-range parameters are errors, never panics.
func TestRejects(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "no-such-protocol", N: 2},
		{Name: "", N: 2},
		{Name: "machine:test&set:2:0", N: 2},    // ids start at 1
		{Name: "machine:quux:1:1", N: 2},        // unknown object type
		{Name: "machine:register:1", N: 2},      // too few fields
		{Name: "machine:register:1:1:1", N: 2},  // too many fields
		{Name: "machine:register:x:1", N: 2},    // non-numeric freeStates
		{Name: "machine:register:1:y", N: 2},    // non-numeric id
		{Name: "machine:register:1:-1", N: 2},   // negative id
		{Name: "machine:register:1000:1", N: 2}, // class too large to enumerate
		{Name: "cas", N: 0},
		{Name: "cas", N: -1},
		{Name: "counter-walk", N: MaxN + 1},
		{Name: "counter-walk", N: 1 << 40},
		{Name: "machine:sticky-bit:2:26863", N: 0},
		{Name: "flood-registers", N: 2},
		{Name: "flood-swap", N: 2, R: -1},
		{Name: "flood-mixed", N: 2, R: MaxR + 1},
		{Name: "scan-machine", N: 2},
	} {
		if _, err := Resolve(spec); err == nil {
			t.Errorf("%+v resolved", spec)
		}
	}
	// R bounds only the entries that read it.
	if _, err := Resolve(Spec{Name: "cas", N: 2, R: -1}); err != nil {
		t.Errorf("cas with an unread r=-1: %v", err)
	}
}

// TestResolveLive: a live run is bounded by the protocol, not by MaxN.
func TestResolveLive(t *testing.T) {
	if _, err := ResolveLive(Spec{Name: "counter-walk", N: 128}); err != nil {
		t.Errorf("counter-walk at n=128: %v", err)
	}
	for _, spec := range []Spec{
		{Name: "packed-fetch&add", N: protocol.MaxPackedN + 1},
		{Name: "cas", N: 0},
		{Name: "no-such-protocol", N: 2},
	} {
		if _, err := ResolveLive(spec); err == nil {
			t.Errorf("%+v resolved live", spec)
		}
	}
}

// TestMachineSpecRoundTrip: a machine named by MachineSpec resolves to
// the identical machine.
func TestMachineSpecRoundTrip(t *testing.T) {
	m, err := hierarchy.MachineByID(object.TestAndSetType{}, 2, 137)
	if err != nil {
		t.Fatal(err)
	}
	spec := MachineSpec(m, 2)
	if spec.Name != "machine:test&set:2:137" {
		t.Errorf("MachineSpec name %q", spec.Name)
	}
	proto, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := proto.Name(); got != "machine(test&set,#137)" {
		t.Errorf("machine name %q", got)
	}
}
