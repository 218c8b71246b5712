package sim_test

import (
	"bytes"
	"math/rand"
	"testing"

	"randsync/internal/protocol"
	"randsync/internal/sim"
)

// TestScheduleRoundTrip: random walks through counter-walk, recorded as
// executions, survive Schedule → ReplaySchedule with the final
// configuration reproduced byte-for-byte (compact key equality), for many
// seeds and walk lengths.
func TestScheduleRoundTrip(t *testing.T) {
	proto := protocol.NewCounterWalk(2)
	inputs := []int64{0, 1}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := sim.NewConfig(proto, inputs)
		var x sim.Execution
		for step := 0; step < 3+rng.Intn(40); step++ {
			// Pick a live process uniformly; resolve flips uniformly.
			var live []int
			for pid := 0; pid < c.N(); pid++ {
				if c.Pending(pid).Kind != sim.ActHalt {
					live = append(live, pid)
				}
			}
			if len(live) == 0 {
				break
			}
			pid := live[rng.Intn(len(live))]
			outcome := int64(0)
			if a := c.Pending(pid); a.Kind == sim.ActFlip {
				outcome = rng.Int63n(a.Sides)
			}
			ev, err := c.Step(pid, outcome)
			if err != nil {
				t.Fatalf("seed %d: step: %v", seed, err)
			}
			x = append(x, ev)
		}

		sched := x.Schedule()
		if steps, err := sim.ScheduleLen(sched); err != nil || steps != len(x) {
			t.Fatalf("seed %d: ScheduleLen = %d, %v; want %d", seed, steps, err, len(x))
		}
		replayed := sim.NewConfig(proto, inputs)
		if err := replayed.ReplaySchedule(sched); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		want := c.AppendKey(nil)
		got := replayed.AppendKey(nil)
		if !bytes.Equal(want, got) {
			t.Fatalf("seed %d: replayed configuration differs:\nwalked:   %x\nreplayed: %x", seed, want, got)
		}
	}
}

// TestReplayScheduleErrors: truncated encodings and illegal steps are
// reported, not silently absorbed.
func TestReplayScheduleErrors(t *testing.T) {
	proto := protocol.NewCounterWalk(2)
	c := sim.NewConfig(proto, []int64{0, 1})
	sched := sim.AppendScheduleStep(nil, 0, 0)
	if err := c.ReplaySchedule(sched[:1]); err == nil {
		t.Error("truncated schedule replayed without error")
	}
	if _, err := sim.ScheduleLen(sched[:1]); err == nil {
		t.Error("truncated schedule measured without error")
	}
	bad := sim.AppendScheduleStep(nil, 7, 0) // no process P7
	if err := sim.NewConfig(proto, []int64{0, 1}).ReplaySchedule(bad); err == nil {
		t.Error("out-of-range pid replayed without error")
	}
}
