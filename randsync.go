// Package randsync is a Go reproduction of Fich, Herlihy and Shavit,
// "On the Space Complexity of Randomized Synchronization" (PODC 1993):
// randomized wait-free consensus protocols classified by the number of
// shared-object instances they need, together with the paper's Ω(√n)
// lower-bound constructions for historyless objects, mechanized as
// executable adversaries.
//
// This package is the public facade; see the README for the architecture.
// Three entry points cover most uses:
//
// Consensus — live, goroutine-ready binary consensus with explicit space
// accounting:
//
//	c := randsync.NewRegisterConsensus(8, seed) // 3n+2 registers, no stronger objects
//	go func(p int) { decision := c.Decide(p, proposal) }(p)
//
// The lower bound — construct a verified inconsistent execution against
// any solo-terminating protocol over historyless objects:
//
//	w, err := randsync.BreakGeneral(myProtocol, randsync.BreakOptions{})
//	// w.Exec decides both 0 and 1; w.Verify() already replayed it.
//
// Model checking — exhaustively verify a simulator-world protocol over
// every schedule and every coin outcome:
//
//	rep := randsync.CheckConsensus(myProtocol, 3)
//	if rep.Violation != nil { ... concrete counterexample trace ... }
package randsync

import (
	"randsync/internal/consensus"
	"randsync/internal/core"
	"randsync/internal/object"
	"randsync/internal/protocol"
	"randsync/internal/sim"
	"randsync/internal/universal"
	"randsync/internal/valency"
)

// Consensus is a live, single-shot, n-process binary consensus object.
// Each process calls Decide at most once with its pid and an input in
// {0, 1}; all calls return the same value, which is some caller's input.
// Objects() and Registers() report the space usage — the quantity the
// paper's separation results are about.
type Consensus = consensus.Protocol

// NewRegisterConsensus returns randomized consensus from 3n+2 read-write
// registers (Aspnes–Herlihy [9]): the upper bound contrasting with the
// paper's Ω(√n) historyless lower bound.
func NewRegisterConsensus(n int, seed uint64) Consensus {
	return consensus.NewRegisters(n, seed)
}

// NewCounterConsensus returns randomized consensus from three counters
// via Aspnes' random walk [7] (the published basis of Theorem 4.2).
func NewCounterConsensus(n int, seed uint64) Consensus {
	return consensus.New("counter-walk", protocol.NewCounterWalk(n), n, seed)
}

// NewFetchAddConsensus returns randomized consensus from a single
// fetch&add register (Theorem 4.4).
func NewFetchAddConsensus(n int, seed uint64) (Consensus, error) {
	return consensus.Resolve("packed-fetch&add", n, seed)
}

// NewCASConsensus returns deterministic n-process consensus from a single
// compare&swap register (Herlihy [20]), for any number of processes.
func NewCASConsensus() Consensus {
	return casConsensus(0)
}

// casConsensus runs the compare&swap step machine live; the machine reads
// neither the process count n nor a coin, so any n serves.
func casConsensus(n int) Consensus {
	return consensus.New("cas", protocol.CASConsensus{}, n, 0)
}

// NewCompositionConsensus returns the Theorem 2.1 composition: the
// three-counter protocol with each counter built from n read-write
// registers (an atomic snapshot), for 3n registers total.
func NewCompositionConsensus(n int, seed uint64) Consensus {
	return consensus.NewCounterWalkFromRegisters(n, seed)
}

// SimProtocol is a consensus protocol in the simulator world: an immutable
// step machine over shared objects, suitable for exhaustive model checking
// and for the lower-bound adversary.  See internal/protocol for the
// built-in implementations and internal/sim for the machine model.
type SimProtocol = sim.Protocol

// Witness is a machine-checked counterexample execution produced by the
// lower-bound adversary: replayed from its initial configuration, it
// decides two different values (or violates validity).
type Witness = core.Witness

// BreakOptions configure the adversary.
type BreakOptions struct {
	// MaxSolo bounds solo-termination searches (0 = automatic).
	MaxSolo int
	// Processes overrides the process-pool size (0 = the lemma bound).
	Processes int
}

// BreakIdentical runs the §3.1 construction (Lemmas 3.1–3.2, Theorem 3.3)
// against a protocol with identical processes over read-write registers,
// returning a verified inconsistent execution using at most r²−r+2
// processes.
func BreakIdentical(p SimProtocol, opts BreakOptions) (*Witness, error) {
	return core.FindIdentical(p, core.IdenticalOptions{MaxSolo: opts.MaxSolo})
}

// BreakGeneral runs the general construction (Lemmas 3.4–3.6, Theorem
// 3.7) against any solo-terminating protocol over historyless objects,
// returning a verified inconsistent execution using O(r²) processes.
func BreakGeneral(p SimProtocol, opts BreakOptions) (*Witness, error) {
	return core.FindGeneral(p, core.GeneralOptions{
		MaxSolo:   opts.MaxSolo,
		Processes: opts.Processes,
	})
}

// CheckReport is the exhaustive model checker's verdict: a violation with
// a concrete trace, or a clean (and, if Complete, exhaustive) safety
// certificate.
type CheckReport = valency.Report

// CheckConsensus explores every schedule and every coin outcome of p for
// n processes over all binary input vectors, reporting the first
// consistency/validity violation or a safety certificate.
func CheckConsensus(p SimProtocol, n int) *CheckReport {
	return valency.CheckAllInputs(p, n, valency.Options{})
}

// ObjectType is a sequential object specification (register, swap,
// test&set, counter, fetch&add, compare&swap, sticky bit, ...).
type ObjectType = object.Type

// Historyless reports whether the type is historyless — the class the
// paper's lower bound applies to: its value depends only on the last
// nontrivial operation applied.
func Historyless(t ObjectType) bool { return object.Historyless(t) }

// SharedObject is a wait-free linearizable shared object of any
// sequential type, built from binary consensus by Herlihy's universal
// construction (the §1 application: implementing one synchronization
// object from another).
type SharedObject = universal.Universal

// NewSharedObject returns a wait-free linearizable implementation of typ
// for n processes, with every agreement step backed by a fresh
// compare&swap-based binary consensus instance.  maxOps bounds the total
// operations (the log is preallocated for wait-freedom).
func NewSharedObject(typ ObjectType, n, maxOps int, seed uint64) (*SharedObject, error) {
	factory := func(n int, seed uint64) universal.BinaryConsensus {
		return casConsensus(n)
	}
	return universal.New(typ, n, factory, universal.Options{MaxOps: maxOps, Seed: seed})
}

// NewSharedObjectFromRegisters is NewSharedObject with every agreement
// step backed by the randomized register-only protocol: a wait-free
// linearizable object of any type from read-write registers and
// randomization alone — impossible deterministically.
func NewSharedObjectFromRegisters(typ ObjectType, n, maxOps int, seed uint64) (*SharedObject, error) {
	factory := func(n int, seed uint64) universal.BinaryConsensus {
		return consensus.NewRegisters(n, seed)
	}
	return universal.New(typ, n, factory, universal.Options{MaxOps: maxOps, Seed: seed})
}
