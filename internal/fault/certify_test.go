package fault

import (
	"testing"
	"time"

	"randsync/internal/consensus"
)

// liveProtocol names one live protocol at the process count it supports:
// 2 for the two-process warm-ups, the certificate's full width otherwise.
type liveProtocol struct {
	name string
	n    int
}

// liveProtocols enumerates every live protocol in the repository at its
// certificate width: the registry's consensus step machines, run live,
// then the two live-only constructions.
func liveProtocols(n int) []liveProtocol {
	return []liveProtocol{
		{"cas", n}, {"tas-2", 2}, {"swap-2", 2}, {"fetch&add-2", 2}, {"fetch&inc-2", 2},
		{"counter-walk", n}, {"packed-fetch&add", n},
		{"registers", n}, {"counter-walk/registers", n},
	}
}

// make builds a fresh instance of the protocol, its coins seeded by seed.
func (m liveProtocol) make(t *testing.T, seed uint64) consensus.Protocol {
	t.Helper()
	p, err := consensus.Resolve(m.name, m.n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mixedInputs is the certificate's input vector: alternating 0/1, so both
// agreement and validity are live checks.
func mixedInputs(n int, flip int) []int64 {
	inputs := make([]int64, n)
	for i := range inputs {
		inputs[i] = int64((i + flip) % 2)
	}
	return inputs
}

func requireCertified(t *testing.T, name string, rep *Report) {
	t.Helper()
	if !rep.Ok() {
		t.Fatalf("%s: certification failed (reproduce with the embedded seed): %v",
			name, rep.Violation)
	}
}

// TestSingleCrashCertificate is the exhaustive half of the chaos
// certificate: every live protocol, under every single-crash pattern —
// each process crashed at each of a ladder of operation indexes — has all
// surviving processes decide a common valid value within budget.
func TestSingleCrashCertificate(t *testing.T) {
	const n = 8
	atOps := []int64{0, 1, 2, 3, 5, 8, 13, 21}
	for _, m := range liveProtocols(n) {
		for victim := 0; victim < m.n; victim++ {
			for _, atOp := range atOps {
				p := m.make(t, uint64(victim+1))
				rep := Run(p, mixedInputs(m.n, victim), SingleCrash(victim, atOp), Options{})
				requireCertified(t, m.name, rep)
				if rep.Decided[victim] && rep.Crashed[victim] {
					t.Fatalf("%s: P%d both decided and crashed", m.name, victim)
				}
			}
		}
	}
}

// TestSeededChaosCertificate is the randomized half: 64 seeded random
// crash/stall/storm/freeze schedules per protocol, each derived
// deterministically from its seed so any failure replays exactly.
func TestSeededChaosCertificate(t *testing.T) {
	const n, seeds = 8, 64
	for _, m := range liveProtocols(n) {
		for seed := uint64(1); seed <= seeds; seed++ {
			o := PlanOptions{
				Crashes:  int(seed % 3),
				Stalls:   int(seed % 2),
				Storms:   int((seed / 2) % 2),
				Freeze:   seed%8 == 0,
				MaxAtOp:  32,
				MaxStall: 100 * time.Microsecond,
			}
			plan := RandomPlan(m.n, seed, o)
			p := m.make(t, seed)
			rep := Run(p, mixedInputs(m.n, int(seed)), plan, Options{})
			requireCertified(t, m.name, rep)
			// Graceful degradation: nobody outside the plan may die.
			planned := plan.Crashes()
			for proc, crashed := range rep.Crashed {
				if crashed && !planned[proc] {
					t.Fatalf("%s seed %d: P%d crashed outside the plan", m.name, seed, proc)
				}
			}
		}
	}
}

// TestFreezeRunReleases certifies the unbounded-stall schedule end to end:
// a frozen process resumes once all peers decide, and still decides the
// common value itself.
func TestFreezeRunReleases(t *testing.T) {
	for trial := uint64(1); trial <= 8; trial++ {
		p := liveProtocol{"counter-walk", 4}.make(t, trial)
		plan := Plan{Events: []Event{{Proc: 0, Kind: Freeze, AtOp: 1}}}
		rep := Run(p, []int64{0, 1, 0, 1}, plan, Options{})
		requireCertified(t, "counter-walk/freeze", rep)
		if !rep.Decided[0] {
			t.Fatalf("trial %d: frozen process never decided", trial)
		}
	}
}
