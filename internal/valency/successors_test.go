package valency

import (
	"reflect"
	"testing"

	"randsync/internal/protocol"
	"randsync/internal/sim"
)

// move is one (pid, outcome) choice of the adversary.
type move struct {
	pid int
	out int64
}

// wantMoves spells the move rule out independently of Successors: every
// uncrashed, unhalted pid in ascending order, each flip outcome in
// ascending order.
func wantMoves(c *sim.Config, opts Options) []move {
	var ms []move
	for pid := 0; pid < c.N(); pid++ {
		if opts.Crashed(c, pid) {
			continue
		}
		switch a := c.Pending(pid); a.Kind {
		case sim.ActHalt:
		case sim.ActFlip:
			for o := int64(0); o < a.Sides; o++ {
				ms = append(ms, move{pid, o})
			}
		default:
			ms = append(ms, move{pid, 0})
		}
	}
	return ms
}

// reachableConfigs returns up to limit configurations reachable from c
// under opts, breadth-first, expanded by clone-and-Step along wantMoves
// rather than by Successors.
func reachableConfigs(c *sim.Config, opts Options, limit int) []*sim.Config {
	key := func(c *sim.Config) string {
		var k sim.Keyer
		return string(opts.AppendVisitKey(&k, c, nil))
	}
	seen := map[string]bool{key(c): true}
	out := []*sim.Config{c}
	for i := 0; i < len(out) && len(out) < limit; i++ {
		for _, m := range wantMoves(out[i], opts) {
			next := out[i].Clone()
			if _, err := next.Step(m.pid, m.out); err != nil {
				panic(err)
			}
			if k := key(next); !seen[k] {
				seen[k] = true
				out = append(out, next)
			}
		}
	}
	return out
}

// TestSuccessors pins the one move rule on counter-walk n = 2 (which
// flips, decides and halts), with no crash schedule and with one that
// stops P0 after its first step.  The callbacks arrive in (pid, outcome)
// order and skip crashed and halted pids; each sees exactly the
// successor a fresh clone reaches by that move; c's Key and Steps are
// restored after every callback; the enumeration stops at the first
// true; and the enumeration allocates nothing beyond the steps
// themselves.
func TestSuccessors(t *testing.T) {
	proto := protocol.NewCounterWalk(2)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"no-crash", Options{}},
		{"crash-P0-after-1", Options{Crash: crashOne(2, 0, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			configs := reachableConfigs(sim.NewConfig(proto, []int64{0, 1}), tc.opts, 1<<14)
			var sawFlip, sawHalt, sawCrash bool
			for _, c := range configs {
				for pid := 0; pid < c.N(); pid++ {
					crashed := tc.opts.Crashed(c, pid)
					sawCrash = sawCrash || crashed
					sawHalt = sawHalt || c.Pending(pid).Kind == sim.ActHalt
					sawFlip = sawFlip || (!crashed && c.Pending(pid).Kind == sim.ActFlip)
				}
				orig, key, steps := c.Clone(), keyOf(c), append([]int(nil), c.Steps...)
				restored := func() bool { return keyOf(c) == key && reflect.DeepEqual(c.Steps, steps) }

				var got []move
				stopped, err := tc.opts.Successors(c, func(pid int, out int64, ev sim.Event) bool {
					ref := orig.Clone()
					wantEv, err := ref.Step(pid, out)
					if err != nil {
						t.Fatalf("%q: reference step P%d/%d: %v", key, pid, out, err)
					}
					if keyOf(c) != keyOf(ref) || !reflect.DeepEqual(c.Steps, ref.Steps) || ev != wantEv {
						t.Fatalf("%q: move P%d/%d: callback does not see the stepped successor", key, pid, out)
					}
					got = append(got, move{pid, out})
					return false
				})
				if err != nil || stopped {
					t.Fatalf("%q: Successors = %v, %v", key, stopped, err)
				}
				if want := wantMoves(orig, tc.opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%q: moves %v, want %v", key, got, want)
				}
				if !restored() {
					t.Fatalf("%q: not restored after the enumeration", key)
				}

				for stopAt := 1; stopAt <= len(got); stopAt++ {
					calls := 0
					stopped, err := tc.opts.Successors(c, func(int, int64, sim.Event) bool {
						calls++
						return calls == stopAt
					})
					if err != nil || !stopped || calls != stopAt {
						t.Fatalf("%q: stop at %d: stopped=%v err=%v after %d calls", key, stopAt, stopped, err, calls)
					}
					if !restored() {
						t.Fatalf("%q: not restored after a stop at %d", key, stopAt)
					}
				}
			}
			if !sawFlip || !sawHalt || sawCrash != (len(tc.opts.Crash) > 0) {
				t.Fatalf("coverage over %d configs: flip=%v halt=%v crash=%v", len(configs), sawFlip, sawHalt, sawCrash)
			}

			// Successors itself allocates nothing: a full enumeration with a
			// no-op callback costs exactly what the bare StepInto/UndoStep
			// loop costs.  (That is not 0 here: counter-walk's Advance boxes
			// a fresh walkState into the sim.State interface on every step.)
			noop := func(int, int64, sim.Event) bool { return false }
			rule := testing.AllocsPerRun(20, func() {
				for _, c := range configs {
					tc.opts.Successors(c, noop)
				}
			})
			bare := testing.AllocsPerRun(20, func() {
				var u sim.StepUndo
				for _, c := range configs {
					for pid := 0; pid < c.N(); pid++ {
						if tc.opts.Crashed(c, pid) || c.Pending(pid).Kind == sim.ActHalt {
							continue
						}
						outcomes := int64(1)
						if a := c.Pending(pid); a.Kind == sim.ActFlip {
							outcomes = a.Sides
						}
						for o := int64(0); o < outcomes; o++ {
							c.StepInto(pid, o, &u)
							c.UndoStep(&u)
						}
					}
				}
			})
			if rule != bare {
				t.Fatalf("a full enumeration allocates %v times, the bare step loop %v", rule, bare)
			}
		})
	}
}
