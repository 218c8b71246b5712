// Package core mechanizes the lower-bound constructions of §3 of Fich,
// Herlihy and Shavit, "On the Space Complexity of Randomized
// Synchronization": given a consensus protocol over historyless objects
// that satisfies nondeterministic solo termination, the package constructs
// a concrete execution in which one process decides 0 and another decides 1
// — the machine-checked witness behind the paper's Ω(√n) space lower bound
// (Theorem 3.7).
//
// Two constructions are implemented:
//
//   - FindIdentical: the §3.1 special case (Lemmas 3.1–3.2, Theorem 3.3)
//     for read-write registers and identical processes, which splices
//     executions together using clones — processes left behind poised to
//     re-perform earlier writes.
//
//   - FindGeneral: the general case (Lemmas 3.4–3.6, Theorem 3.7) for
//     arbitrary historyless objects and non-identical processes, built
//     from interruptible executions (Definitions 3.1–3.2) and their
//     excess capacity.
//
// Every execution the adversary produces is replayed step-by-step through
// the ordinary simulator semantics (Witness.Verify) before being reported,
// so a bug in the combiner cannot silently "prove" a false inconsistency.
package core

import (
	"fmt"
	"sort"

	"randsync/internal/object"
	"randsync/internal/sim"
)

// WitnessKind says which correctness condition of §2 the witness violates.
type WitnessKind uint8

const (
	// Inconsistency: the execution decides two different values.
	Inconsistency WitnessKind = iota
	// ValidityViolation: the execution decides a value that is no
	// process's input.
	ValidityViolation
)

// String implements fmt.Stringer.
func (k WitnessKind) String() string {
	switch k {
	case Inconsistency:
		return "inconsistency"
	case ValidityViolation:
		return "validity violation"
	}
	return fmt.Sprintf("witnesskind(%d)", uint8(k))
}

// Witness is a counterexample execution: replayed from the initial
// configuration with the recorded inputs, it violates consistency (two
// processes decide different values) or validity.  It is the executable
// analogue of "this implementation is not a correct consensus
// implementation".
type Witness struct {
	// Proto is the protocol attacked.
	Proto sim.Protocol
	// Inputs is the input vector of the configuration the execution
	// starts from.
	Inputs []int64
	// Exec is the offending execution.
	Exec sim.Execution
	// Kind is the violated condition.
	Kind WitnessKind
	// Decisions maps each decided value to the deciding processes, filled
	// in by Verify.
	Decisions map[int64][]int
}

// Verify replays the witness from its initial configuration and checks
// that the execution is legal and exhibits the claimed violation.  It must
// be called before a witness is trusted.
func (w *Witness) Verify() error {
	c := sim.NewConfig(w.Proto, w.Inputs)
	if err := c.Apply(w.Exec); err != nil {
		return fmt.Errorf("core: witness does not replay: %w", err)
	}
	decisions := c.Decisions()
	switch w.Kind {
	case Inconsistency:
		if len(decisions) < 2 {
			return fmt.Errorf("core: witness execution decides only %v, want two values", decisions)
		}
	case ValidityViolation:
		valid := make(map[int64]bool, len(w.Inputs))
		for _, in := range w.Inputs {
			valid[in] = true
		}
		bad := false
		for v := range decisions {
			if !valid[v] {
				bad = true
			}
		}
		if !bad {
			return fmt.Errorf("core: witness execution decides only input values %v", decisions)
		}
	default:
		return fmt.Errorf("core: unknown witness kind %v", w.Kind)
	}
	w.Decisions = decisions
	return nil
}

// ProcessesUsed returns the number of distinct processes taking steps in
// the witness execution — the quantity bounded by Theorem 3.3 (at most
// r²−r+1 identical processes can solve randomized consensus using r
// registers) and Lemma 3.6 (3r²+r processes suffice to derive
// inconsistency from r historyless objects).
func (w *Witness) ProcessesUsed() int { return len(w.Exec.ByProcess()) }

// regSet is a set of object indexes with deterministic iteration order.
type regSet map[int]bool

func newRegSet(regs ...int) regSet {
	s := make(regSet, len(regs))
	for _, r := range regs {
		s[r] = true
	}
	return s
}

// sorted returns the members in increasing order.
func (s regSet) sorted() []int {
	out := make([]int, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// subsetOf reports whether s ⊆ t.
func (s regSet) subsetOf(t regSet) bool {
	for r := range s {
		if !t[r] {
			return false
		}
	}
	return true
}

// union returns s ∪ t as a new set.
func (s regSet) union(t regSet) regSet {
	out := make(regSet, len(s)+len(t))
	for r := range s {
		out[r] = true
	}
	for r := range t {
		out[r] = true
	}
	return out
}

// minus returns s \ t as a new set.
func (s regSet) minus(t regSet) regSet {
	out := make(regSet)
	for r := range s {
		if !t[r] {
			out[r] = true
		}
	}
	return out
}

// intersect returns s ∩ t as a new set.
func (s regSet) intersect(t regSet) regSet {
	out := make(regSet)
	for r := range s {
		if t[r] {
			out[r] = true
		}
	}
	return out
}

// clone returns a copy of s.
func (s regSet) clone() regSet {
	out := make(regSet, len(s))
	for r := range s {
		out[r] = true
	}
	return out
}

// equal reports s == t.
func (s regSet) equal(t regSet) bool {
	return len(s) == len(t) && s.subsetOf(t)
}

// isNontrivialOn reports whether ev is a nontrivial operation on an object,
// and if so which object.
func nontrivialTarget(types []object.Type, ev sim.Event) (int, bool) {
	if ev.Action.Kind != sim.ActOperate {
		return 0, false
	}
	if object.Trivial(types[ev.Action.Obj], ev.Action.Op.Kind) {
		return 0, false
	}
	return ev.Action.Obj, true
}

// historylessOnly verifies that every object of the protocol is
// historyless, the hypothesis of Theorem 3.7.
func historylessOnly(proto sim.Protocol) error {
	for i, t := range proto.Objects() {
		if !object.Historyless(t) {
			return fmt.Errorf("core: object R%d of %s has non-historyless type %s; the lower bound does not apply",
				i, proto.Name(), t.Name())
		}
	}
	return nil
}

// ValidateTarget checks that proto is a legitimate target for the lower-
// bound constructions at the given system size: every object historyless,
// and nondeterministic solo termination holding from the initial
// configuration for a sample of inputs within maxSolo steps.
//
// The check is necessarily partial (NST quantifies over all reachable
// configurations); the constructions themselves re-discover NST failures
// as explicit errors during the build.
func ValidateTarget(proto sim.Protocol, n, maxSolo int) error {
	if err := historylessOnly(proto); err != nil {
		return err
	}
	if err := sim.Validate(proto, n); err != nil {
		return err
	}
	for _, input := range []int64{0, 1} {
		inputs := make([]int64, n)
		for i := range inputs {
			inputs[i] = input
		}
		c := sim.NewConfig(proto, inputs)
		for pid := 0; pid < n; pid++ {
			if c.Pending(pid).Kind == sim.ActHalt {
				return fmt.Errorf("core: %s: P%d of %d halts immediately; protocol not defined at this size",
					proto.Name(), pid, n)
			}
		}
		if _, ok := sim.SoloDecision(c, 0, maxSolo); !ok {
			return fmt.Errorf("core: %s: no deciding solo execution within %d steps from the all-%d configuration",
				proto.Name(), maxSolo, input)
		}
	}
	return nil
}
