package consensus

import (
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"randsync/internal/linearizability"
	"randsync/internal/protocol"
	"randsync/internal/runtime"
	"randsync/internal/sim"
)

// runConsensus executes one instance with the given inputs concurrently
// and returns the per-process decisions.
func runConsensus(t *testing.T, p Protocol, inputs []int64) []int64 {
	t.Helper()
	n := len(inputs)
	out := make([]int64, n)
	var wg sync.WaitGroup
	for proc := 0; proc < n; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			out[proc] = p.Decide(proc, inputs[proc])
		}(proc)
	}
	wg.Wait()
	return out
}

// checkOutcome asserts consistency and validity.
func checkOutcome(t *testing.T, name string, inputs, decisions []int64) {
	t.Helper()
	valid := map[int64]bool{}
	for _, in := range inputs {
		valid[in] = true
	}
	for proc, d := range decisions {
		if d != decisions[0] {
			t.Fatalf("%s: consistency violated: decisions %v for inputs %v", name, decisions, inputs)
		}
		if !valid[d] {
			t.Fatalf("%s: validity violated: P%d decided %d, inputs %v", name, proc, d, inputs)
		}
	}
}

// resolve builds a live protocol that the test expects to exist.
func resolve(t *testing.T, name string, n int, seed uint64) Protocol {
	t.Helper()
	p, err := Resolve(name, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// nProcess lists the live protocols that run at any n; twoProcess the
// §4 warm-ups, which run at n = 2.
var (
	nProcess   = []string{"cas", "counter-walk", "counter-walk/registers", "packed-fetch&add", "registers"}
	twoProcess = []string{"tas-2", "swap-2", "fetch&add-2", "fetch&inc-2"}
)

func TestNProcessProtocols(t *testing.T) {
	const n = 8
	for _, name := range nProcess {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				p := resolve(t, name, n, uint64(trial+1))
				rng := rand.New(rand.NewPCG(uint64(trial), 42))
				inputs := make([]int64, n)
				for i := range inputs {
					inputs[i] = int64(rng.IntN(2))
				}
				decisions := runConsensus(t, p, inputs)
				checkOutcome(t, name, inputs, decisions)
			}
		})
	}
}

func TestUnanimousInputs(t *testing.T) {
	const n = 6
	for _, name := range nProcess {
		t.Run(name, func(t *testing.T) {
			for _, v := range []int64{0, 1} {
				p := resolve(t, name, n, 7)
				inputs := make([]int64, n)
				for i := range inputs {
					inputs[i] = v
				}
				decisions := runConsensus(t, p, inputs)
				checkOutcome(t, name, inputs, decisions)
				if decisions[0] != v {
					t.Fatalf("%s: unanimous %d decided %d", name, v, decisions[0])
				}
			}
		})
	}
}

func TestBothOutcomesOccur(t *testing.T) {
	// With mixed inputs, across seeds both values should win sometimes
	// for the randomized protocols.
	const n = 4
	for _, name := range []string{"counter-walk", "packed-fetch&add", "registers"} {
		seen := map[int64]bool{}
		for seed := uint64(1); seed <= 60 && len(seen) < 2; seed++ {
			p := resolve(t, name, n, seed)
			// Alternate the input phase with the seed: the Go scheduler
			// tends to run the last-spawned goroutine first, and a
			// process running solo legitimately decides its own input,
			// so a fixed input vector can yield one outcome on every
			// seed under deterministic scheduling.
			inputs := make([]int64, n)
			for i := range inputs {
				inputs[i] = int64((i + int(seed)) % 2)
			}
			decisions := runConsensus(t, p, inputs)
			checkOutcome(t, name, inputs, decisions)
			seen[decisions[0]] = true
		}
		if !seen[0] || !seen[1] {
			t.Errorf("%s: outcomes seen %v, want both across seeds", name, seen)
		}
	}
}

func TestTwoProcessProtocols(t *testing.T) {
	for _, name := range twoProcess {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				for _, inputs := range [][]int64{{0, 1}, {1, 0}, {0, 0}, {1, 1}} {
					p := resolve(t, name, 2, 1)
					decisions := runConsensus(t, p, inputs)
					checkOutcome(t, name, inputs, decisions)
				}
			}
			if _, err := Resolve(name, 3, 1); err == nil {
				t.Errorf("%s resolved for 3 processes", name)
			}
		})
	}
}

// TestObjectAccounting pins, for every live protocol, the space it claims
// (the numbers that populate the separation table, E4, and E5–E9's
// objects and registers columns) and the work of a sequential run, in
// which process i decides after process i−1 returns: each shared
// operation is counted once, so Ops() is the protocol's exact step
// count.  The pins are those of the hand-written goroutine versions the
// step machines replaced, except registers', whose conciliator now runs
// package coin's shared coin and skips the hand-written version's opening
// write of a zero contribution each round.  It then runs 200 seeded
// concurrent instances of each, which must agree on a valid value.
func TestObjectAccounting(t *testing.T) {
	type pin struct {
		n                  int
		objects, registers int
		ops                int64 // of the sequential run, inputs i%2 and seed 1
	}
	cases := []struct {
		name string
		pins []pin
	}{
		{"cas", []pin{{2, 1, 0, 2}, {8, 1, 0, 8}, {32, 1, 0, 32}}},
		{"tas-2", []pin{{2, 1, 2, 5}}},
		{"swap-2", []pin{{2, 1, 2, 5}}},
		{"fetch&add-2", []pin{{2, 1, 2, 5}}},
		{"fetch&inc-2", []pin{{2, 1, 2, 5}}},
		{"counter-walk", []pin{{2, 3, 0, 20}, {8, 3, 0, 80}, {32, 3, 0, 320}}},
		{"packed-fetch&add", []pin{{2, 1, 0, 16}, {8, 1, 0, 64}, {32, 1, 0, 256}}},
		// The hand-written coin's opening writes made these 82, 916 and
		// 204334: one write more per process, each deciding in round 1.
		{"registers", []pin{{2, 0, 8, 80}, {8, 0, 26, 908}, {32, 0, 98, 204302}}},
		{"counter-walk/registers", []pin{{2, 0, 6, 20}, {8, 0, 24, 80}, {32, 0, 96, 320}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, want := range c.pins {
				p := resolve(t, c.name, want.n, 1)
				if got := p.Objects(); got != want.objects {
					t.Errorf("n=%d: Objects() = %d, want %d", want.n, got, want.objects)
				}
				if got := p.Registers(); got != want.registers {
					t.Errorf("n=%d: Registers() = %d, want %d", want.n, got, want.registers)
				}
				// Process 0 runs solo with input 0 and decides it; the
				// rest adopt it.
				for i := range want.n {
					if d := p.Decide(i, int64(i%2)); d != 0 {
						t.Fatalf("n=%d: sequential P%d decided %d, want 0", want.n, i, d)
					}
				}
				if got := p.Ops(); got != want.ops {
					t.Errorf("n=%d: sequential Ops() = %d, want %d", want.n, got, want.ops)
				}
			}
			n := min(8, c.pins[len(c.pins)-1].n)
			for seed := uint64(1); seed <= 200; seed++ {
				rng := rand.New(rand.NewPCG(seed, 7))
				inputs := make([]int64, n)
				for i := range inputs {
					inputs[i] = int64(rng.IntN(2))
				}
				checkOutcome(t, c.name, inputs, runConsensus(t, resolve(t, c.name, n, seed), inputs))
			}
		})
	}
}

func TestPackedFetchAddRejectsHugeN(t *testing.T) {
	if _, err := Resolve("packed-fetch&add", protocol.MaxPackedN+1, 1); err == nil {
		t.Fatal("packed-fetch&add resolved above protocol.MaxPackedN")
	}
}

// TestOpsCounted ensures the work counters move (the E5–E7 benches rely
// on them).
func TestOpsCounted(t *testing.T) {
	p := resolve(t, "counter-walk", 4, 3)
	runConsensus(t, p, []int64{0, 1, 1, 0})
	if p.Ops() == 0 {
		t.Fatal("ops counter did not move")
	}
}

// TestHaltBeforeDecidePanics: a machine that halts a process before it
// decides is a protocol defect, and Decide names the protocol and pid.
func TestHaltBeforeDecidePanics(t *testing.T) {
	p := New("tas-2", protocol.NewTAS2(), 3, 1)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "tas-2: process 2 halted") {
			t.Fatalf("recovered %q, want the protocol and pid named", r)
		}
	}()
	p.Decide(2, 0)
}

// TestLiveMatchesSimWorldShape cross-validates the two worlds: the
// counter-walk machine run in the simulator under 30 seeded random
// schedules and run live across seeds decides consistently, decides only
// valid values, and reaches both outcomes on mixed inputs.  (Exact
// distributions differ — the schedulers differ — but the qualitative
// shape must match.)
func TestLiveMatchesSimWorldShape(t *testing.T) {
	const n = 3
	res, err := sim.Sample(protocol.NewCounterWalk(n), []int64{0, 1, 1}, 30, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconsistent != 0 {
		t.Fatalf("sim: %d of 30 runs inconsistent", res.Inconsistent)
	}
	if res.Decisions[0] == 0 || res.Decisions[1] == 0 {
		t.Errorf("sim outcomes over 30 seeds: %v, want both", res.Decisions)
	}
	liveSeen := map[int64]bool{}
	for seed := uint64(1); seed <= 60 && len(liveSeen) < 2; seed++ {
		p := resolve(t, "counter-walk", n, seed)
		inputs := []int64{int64(seed % 2), 1, 1 - int64(seed%2)}
		d := runConsensus(t, p, inputs)
		checkOutcome(t, "counter-walk", inputs, d)
		liveSeen[d[0]] = true
	}
	if !liveSeen[0] || !liveSeen[1] {
		t.Errorf("live outcomes: %v, want both", liveSeen)
	}
}

// TestMachineObjectsLinearizable records every object of the live
// compare&swap and sticky-bit machines at n = 8 and of the §4 warm-ups at
// n = 2, runs each concurrently on mixed inputs, and requires every
// object's whole history — every operation the machine applied — to
// check linearizable against its type and every process to decide the
// same input.
func TestMachineObjectsLinearizable(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"cas", 8}, {"sticky", 8}, {"tas-2", 2}, {"swap-2", 2}, {"fetch&add-2", 2}, {"fetch&inc-2", 2}} {
		t.Run(c.name, func(t *testing.T) {
			for trial := range 20 {
				m := resolve(t, c.name, c.n, uint64(trial+1)).(*Machine)
				types := m.proto.Objects()
				recs := make([]*runtime.Recorder, len(types))
				for i, typ := range types {
					recs[i] = &runtime.Recorder{}
					m.objs[i] = runtime.NewObject(typ, recs[i])
				}
				inputs := make([]int64, c.n)
				for i := range inputs {
					inputs[i] = int64((i + trial) % 2)
				}
				checkOutcome(t, c.name, inputs, runConsensus(t, m, inputs))
				recorded := 0
				for i, rec := range recs {
					h := rec.Ops()
					recorded += len(h)
					if len(h) > linearizability.MaxOps {
						t.Fatalf("trial %d: object %d (%s) recorded %d ops, above MaxOps %d", trial, i, types[i].Name(), len(h), linearizability.MaxOps)
					}
					res, err := linearizability.Check(types[i], h)
					if err != nil {
						t.Fatalf("trial %d: object %d (%s): %v", trial, i, types[i].Name(), err)
					}
					if !res.Linearizable {
						t.Fatalf("trial %d: object %d (%s): %d-op history not linearizable", trial, i, types[i].Name(), len(h))
					}
				}
				if int64(recorded) != m.Ops() {
					t.Fatalf("trial %d: recorded %d ops, the machine applied %d", trial, recorded, m.Ops())
				}
			}
		})
	}
}
