package valency

import (
	"testing"

	"randsync/internal/protocol"
	"randsync/internal/sim"
)

func TestBivalenceCAS(t *testing.T) {
	// CAS consensus: the initial mixed-input configuration is bivalent
	// (the first CAS decides everything), but the adversary cannot stay
	// bivalent: the very first step is critical.
	rep, err := Bivalence(protocol.CASConsensus{}, []int64{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("analysis incomplete")
	}
	if rep.Initial != Bivalent {
		t.Fatalf("initial valence = %v, want bivalent", rep.Initial)
	}
	if rep.ForeverBivalent {
		t.Fatal("CAS consensus terminates deterministically; adversary cannot stay bivalent")
	}
	// The critical configuration here is the initial one: the trace is
	// empty and every successor is univalent.
	if len(rep.CriticalTrace) != 0 {
		t.Logf("critical trace of %d steps (initial config already critical is also fine)", len(rep.CriticalTrace))
	}
}

func TestBivalenceCASUnanimous(t *testing.T) {
	rep, err := Bivalence(protocol.CASConsensus{}, []int64{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Initial != Univalent1 {
		t.Fatalf("unanimous-1 initial valence = %v, want 1-valent", rep.Initial)
	}
	if rep.BivalentCount != 0 {
		t.Fatalf("unanimous run has %d bivalent configs, want 0", rep.BivalentCount)
	}
}

func TestBivalenceTAS2(t *testing.T) {
	// The test&set 2-process protocol also decides at its ordering
	// operation; the adversary can delay but not avoid the critical step.
	rep, err := Bivalence(protocol.NewTAS2(), []int64{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Initial != Bivalent || rep.ForeverBivalent {
		t.Fatalf("tas-2: initial=%v forever=%v, want bivalent and not forever",
			rep.Initial, rep.ForeverBivalent)
	}
	// Verify the critical trace replays and leads to a configuration
	// whose every successor is univalent (spot-check: it replays).
	c := sim.NewConfig(protocol.NewTAS2(), []int64{0, 1})
	if err := c.Apply(rep.CriticalTrace); err != nil {
		t.Fatalf("critical trace does not replay: %v", err)
	}
}

func TestBivalenceRegisterConsensusCapped(t *testing.T) {
	// The round-capped simulator twin of the register protocol is NOT
	// forever-bivalent: once both processes hit the cap they spin in
	// undecidable configurations, so within the finite abstraction the
	// adversary is eventually forced out of bivalence.  (The unbounded
	// protocol is forever-bivalent — that is FLP — but its configuration
	// space is infinite; the counter-walk test below certifies
	// forever-bivalence on a protocol whose cycles live inside the
	// reachable space.)
	p := protocol.NewRegisterConsensus(2, 2)
	rep, err := Bivalence(p, []int64{0, 1}, Options{MaxConfigs: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("analysis incomplete")
	}
	if rep.Initial != Bivalent {
		t.Fatalf("initial valence = %v, want bivalent", rep.Initial)
	}
	if rep.ForeverBivalent {
		t.Fatal("round cap should force the adversary out of bivalence eventually")
	}
	if rep.BivalentCount == 0 {
		t.Fatal("no bivalent configurations counted")
	}
}

// TestBivalenceCounterWalkForever is the FLP content, mechanized: for the
// counter-walk protocol, an adversary controlling scheduling AND coin
// outcomes keeps the system bivalent forever — exactly why §2 notes that
// randomized consensus implementations must have non-terminating
// executions "with correspondingly small probabilities".
func TestBivalenceCounterWalkForever(t *testing.T) {
	p := protocol.NewCounterWalk(2)
	rep, err := Bivalence(p, []int64{0, 1}, Options{MaxConfigs: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Initial != Bivalent || !rep.ForeverBivalent {
		t.Fatalf("counter-walk: complete=%v initial=%v forever=%v",
			rep.Complete, rep.Initial, rep.ForeverBivalent)
	}
}

func TestBivalenceBudget(t *testing.T) {
	rep, err := Bivalence(protocol.NewCounterWalk(2), []int64{0, 1}, Options{MaxConfigs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("tiny budget should mark analysis incomplete")
	}
}

// TestBivalenceRefusesCrashSchedule: the analysis keys nodes without a
// crash allowance, so a crash schedule must be an error, not silently
// ignored (or silently merged into the crash-free graph).
func TestBivalenceRefusesCrashSchedule(t *testing.T) {
	rep, err := Bivalence(protocol.CASConsensus{}, []int64{0, 1}, Options{Crash: crashOne(2, 1, 0)})
	if err == nil {
		t.Fatalf("crash schedule accepted: %+v", rep)
	}
}

func TestValenceString(t *testing.T) {
	if Univalent0.String() != "0-valent" || Bivalent.String() != "bivalent" {
		t.Fatal("valence strings wrong")
	}
}
