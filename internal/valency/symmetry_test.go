package valency

import (
	"testing"

	"randsync/internal/protocol"
	"randsync/internal/sim"
)

// requireSameVerdict compares two reports across engines that may visit
// different configuration sets (symmetry-reduced vs unreduced): the
// verdict — clean or violating, and the violation's kind —, the witness's
// validity under replay, the livelock flag, completeness, the reachable
// decision set, and the violating input vector must all agree; the trace
// bytes and the visited-configuration counts legitimately differ.
func requireSameVerdict(t *testing.T, name string, proto sim.Protocol, ref, got *Report) {
	t.Helper()
	if ref.Complete != got.Complete {
		t.Errorf("%s: Complete: ref %v, got %v", name, ref.Complete, got.Complete)
	}
	if ref.Livelock != got.Livelock {
		t.Errorf("%s: Livelock: ref %v, got %v", name, ref.Livelock, got.Livelock)
	}
	if len(ref.Decisions) != len(got.Decisions) {
		t.Errorf("%s: Decisions: ref %v, got %v", name, ref.Decisions, got.Decisions)
	}
	for v := range ref.Decisions {
		if !got.Decisions[v] {
			t.Errorf("%s: decision %d reachable in ref but not in got", name, v)
		}
	}
	rv, gv := ref.Violation, got.Violation
	switch {
	case rv == nil && gv == nil:
		return
	case rv == nil || gv == nil:
		t.Errorf("%s: Violation: ref %v, got %v", name, rv, gv)
		return
	}
	if rv.Kind != gv.Kind {
		t.Errorf("%s: violation kind: ref %v, got %v", name, rv.Kind, gv.Kind)
	}
	for i, rep := range []*Report{ref, got} {
		if len(rep.Inputs) == 0 {
			t.Errorf("%s: report %d lost its input vector", name, i)
			continue
		}
		// Each engine's witness must replay legally from its own inputs
		// and exhibit its claimed violation.
		requireViolation(t, rep, rep.Violation.Kind, proto)
	}
	for i := range ref.Inputs {
		if i < len(got.Inputs) && ref.Inputs[i] != got.Inputs[i] {
			t.Errorf("%s: violating inputs: ref %v, got %v", name, ref.Inputs, got.Inputs)
			break
		}
	}
}

// TestCompactLegacyDifferential: the compact-key engine with symmetry off
// must be byte-identical to the string-key reference (refCheckAllInputs)
// — same visited counts, same canonical traces — across the whole zoo,
// serial and parallel.  This pins that the binary encoding and the
// copy-on-write step path change the representation only, never the
// exploration.
func TestCompactLegacyDifferential(t *testing.T) {
	for _, p := range diffProtocols() {
		ref := refCheckAllInputs(p, 2, nil)
		compact := CheckAllInputs(p, 2, Options{NoSymmetry: true})
		requireSameReport(t, p.Name()+"/serial", ref, compact)
		for _, workers := range []int{2, 4} {
			par := CheckAllInputs(p, 2, Options{NoSymmetry: true, Workers: workers})
			requireSameReport(t, p.Name()+"/parallel", ref, par)
		}
	}
}

// TestSymmetryDifferential: symmetry-reduced exploration returns the same
// verdict as unreduced across the zoo, serial and parallel, and never
// visits more configurations.
func TestSymmetryDifferential(t *testing.T) {
	for _, p := range diffProtocols() {
		unreduced := CheckAllInputs(p, 2, Options{NoSymmetry: true})
		reduced := CheckAllInputs(p, 2, Options{})
		requireSameVerdict(t, p.Name()+"/serial", p, unreduced, reduced)
		if reduced.Configs > unreduced.Configs {
			t.Errorf("%s: symmetry reduction grew the space: %d > %d",
				p.Name(), reduced.Configs, unreduced.Configs)
		}
		if p.Identical() && reduced.Violation == nil && reduced.Configs >= unreduced.Configs && unreduced.Configs > 1<<4 {
			t.Errorf("%s: identical-process protocol saw no reduction (%d vs %d)",
				p.Name(), reduced.Configs, unreduced.Configs)
		}
		for _, workers := range []int{2, 4} {
			par := CheckAllInputs(p, 2, Options{Workers: workers})
			requireSameVerdict(t, p.Name()+"/parallel", p, unreduced, par)
			if par.Violation == nil && par.Configs != reduced.Configs {
				t.Errorf("%s: parallel reduced Configs %d != serial reduced %d",
					p.Name(), par.Configs, reduced.Configs)
			}
		}
	}
}

// TestSymmetryDifferentialLarger pushes the differential to n=3 on
// identical-process protocols, where the reduction quotient (up to 3! = 6
// permutations per class) actually bites.
func TestSymmetryDifferentialLarger(t *testing.T) {
	protos := []sim.Protocol{
		protocol.CASConsensus{},
		protocol.StickyConsensus{},
		protocol.NewCounterWalk(3),
		protocol.NewPackedFetchAdd(3),
	}
	for _, p := range protos {
		unreduced := CheckAllInputs(p, 3, Options{NoSymmetry: true})
		reduced := CheckAllInputs(p, 3, Options{})
		requireSameVerdict(t, p.Name()+"/serial-n3", p, unreduced, reduced)
		if reduced.Configs >= unreduced.Configs {
			t.Errorf("%s n=3: no reduction: %d vs %d", p.Name(), reduced.Configs, unreduced.Configs)
		}
		par := CheckAllInputs(p, 3, Options{Workers: 4})
		requireSameVerdict(t, p.Name()+"/parallel-n3", p, unreduced, par)
	}
}

// TestSymmetryDifferentialMixedInputs covers the single-vector Check path
// with asymmetric inputs — the slots differ by input, so the
// canonicalizer must keep (state, input) pairs together.
func TestSymmetryDifferentialMixedInputs(t *testing.T) {
	for _, p := range diffProtocols() {
		for _, inputs := range [][]int64{{0, 1}, {1, 0}, {1, 1}} {
			unreduced := Check(p, inputs, Options{NoSymmetry: true})
			reduced := Check(p, inputs, Options{})
			requireSameVerdict(t, p.Name(), p, unreduced, reduced)
			par := Check(p, inputs, Options{Workers: 4})
			requireSameVerdict(t, p.Name()+"/parallel", p, unreduced, par)
		}
	}
}

// TestSymmetryCrashDifferential: under a crash schedule symmetry
// reduction is disabled (per-process crash allowances break slot
// interchangeability), so default options must match the string-key
// reference, whose keys carry the crash allowances in their own
// rendering, byte-for-byte — serial and parallel.
func TestSymmetryCrashDifferential(t *testing.T) {
	for _, p := range diffProtocols() {
		for _, crash := range [][]int{
			crashOne(2, 0, 1),
			crashOne(2, 1, 2),
			// Late enough that a process revisits a state with a
			// different allowance left: only the key's crash suffix
			// keeps those configurations apart.
			crashOne(2, 0, 3),
			{0, -1},
		} {
			opts := Options{Crash: crash}
			if opts.SymmetryOn() {
				t.Fatalf("symmetry must be off under a crash schedule")
			}
			ref := refCheckAllInputs(p, 2, crash)
			compact := CheckAllInputs(p, 2, opts)
			requireSameReport(t, p.Name()+"/crash-serial", ref, compact)
			par := CheckAllInputs(p, 2, Options{Crash: crash, Workers: 4})
			requireSameReport(t, p.Name()+"/crash-parallel", ref, par)
		}
	}
}

// TestSymmetryOptionGates: the knobs compose as documented — crash
// schedules imply no symmetry, and NoSymmetry wins over the default.
func TestSymmetryOptionGates(t *testing.T) {
	cases := []struct {
		opts Options
		want bool
	}{
		{Options{}, true},
		{Options{NoSymmetry: true}, false},
		{Options{Crash: []int{1, -1}}, false},
	}
	for i, tc := range cases {
		if got := tc.opts.SymmetryOn(); got != tc.want {
			t.Errorf("case %d: SymmetryOn() = %v, want %v (%+v)", i, got, tc.want, tc.opts)
		}
	}
}
