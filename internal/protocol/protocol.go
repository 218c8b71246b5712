// Package protocol contains consensus protocol implementations for the
// simulator world (package sim): immutable step machines that can be
// exhaustively model-checked (package valency) and attacked by the
// lower-bound constructions of §3 (package core).
//
// Two families live here:
//
//   - Correct upper bounds from §4 of the paper: consensus from a single
//     compare&swap register (Herlihy [20]), from one test&set / swap /
//     fetch&add object plus registers for two processes, from three
//     counters via a random walk (Aspnes [7], Theorem 4.2), from a single
//     fetch&add register (Theorem 4.4), and from O(n) read-write registers
//     (Aspnes–Herlihy [9]).
//
//   - Deliberately flawed protocols over historyless objects (Flood and
//     friends) that satisfy nondeterministic solo termination: the targets
//     against which the §3 adversary constructs inconsistent executions.
//     A correct consensus protocol from few historyless objects cannot
//     exist — that is the theorem — so the adversary is demonstrated on
//     protocols that are consistent in solo and low-contention executions
//     but, necessarily, not under the adversary's schedule.
package protocol

import "randsync/internal/sim"

// None is the encoding of "no value written yet" used by protocols that
// distinguish untouched objects; inputs v are stored as v+1.
const None int64 = 0

// enc encodes a binary input for storage in an object that starts at 0.
func enc(v int64) int64 { return v + 1 }

// dec decodes enc.
func dec(x int64) int64 { return x - 1 }

// decideState is a tiny reusable state that decides a fixed value.
type decideState struct{ v int64 }

func (s decideState) Action() sim.Action      { return sim.Action{Kind: sim.ActDecide, Value: s.v} }
func (s decideState) Advance(int64) sim.State { return sim.Halted{} }

var _ sim.State = decideState{}
