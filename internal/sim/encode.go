package sim

import (
	"bytes"
	"encoding/binary"
)

// This file is the visited-set key of every exploration engine: a
// binary configuration encoding, appended into a caller-owned scratch
// buffer, so encoding a configuration and fingerprinting it allocate
// nothing, and the only retained copy is the one the visited set interns
// for a genuinely new configuration.
//
// Encoding layout (all integers varint-encoded with encoding/binary):
//
//	config  := slot^n object^r
//	slot    := state varint(input) decidedByte [varint(decision)]
//	state   := tagByte fields...            (State.AppendKey)
//
// Tags: 0x01 is Halted; package protocol uses 0x10–0x19 and package
// hierarchy 0x30.  0x00 is free (it used to mark a length-prefixed string
// fallback), and valency's crash-allowance separator 0xFD must never
// begin a state.  Every component is self-delimiting and the slot and
// object counts are fixed for a given (Protocol, inputs) instance, so
// within one exploration two configurations share a key iff every slot's
// state key, input and decision and every object value agree.  Whether a
// state key keeps every field that matters is up to each
// State.AppendKey, which valency's TestStateKeyCongruence checks
// behaviourally.

// HaltedKeyTag is the state-encoding tag of Halted (the only state every
// protocol shares); protocol packages must pick tags above it.
const HaltedKeyTag = 0x01

// AppendKey implements State.
func (Halted) AppendKey(buf []byte) []byte { return append(buf, HaltedKeyTag) }

// appendSlot appends the compact encoding of process slot pid: state,
// input, and decision bookkeeping.  The encoding is self-delimiting, so
// slot encodings concatenate (and, for identical-process protocols, sort)
// without ambiguity.
func (c *Config) appendSlot(buf []byte, pid int) []byte {
	buf = c.States[pid].AppendKey(buf)
	buf = binary.AppendVarint(buf, c.Inputs[pid])
	if c.Decided[pid] {
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, c.Decision[pid])
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// appendObjects appends the shared-object values.
func (c *Config) appendObjects(buf []byte) []byte {
	for _, v := range c.Objects {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// AppendKey appends the binary encoding of the configuration to buf and
// returns the extended slice.  Callers on the exploration hot path reuse
// a per-worker scratch buffer (buf = c.AppendKey(buf[:0])); tests that
// want a comparable value use string(c.AppendKey(nil)).
func (c *Config) AppendKey(buf []byte) []byte {
	for pid := range c.States {
		buf = c.appendSlot(buf, pid)
	}
	return c.appendObjects(buf)
}

// FNV-1a constants (hash/fnv's, inlined so fingerprinting needs no
// hasher allocation).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FingerprintBytes hashes an encoding with FNV-1a: configurations with
// equal AppendKey encodings always have equal fingerprints, and distinct
// ones collide only with hash probability.  The sharded engines use it
// to pick a key's shard and table slot; membership is always decided on
// the full key, so a collision never merges two configurations.
func FingerprintBytes(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// Keyer encodes configurations into compact visited-set keys, reusing
// internal scratch across calls; exploration engines hold one per worker.
//
// With Symmetry set and an identical-process protocol (Protocol.Identical,
// the §3.1 cloning precondition), the encoding is canonicalized by sorting
// the process-slot encodings — (state, input, decided, decision) tuples —
// lexicographically before concatenation.  All n! process permutations of
// a configuration then share one canonical key, so permutation-equivalent
// configurations dedup to a single visited entry.  This is sound for
// verdicts because permuting identical-process slots commutes with the
// step relation: the successors of a permuted configuration are exactly
// the permutations of the successors, and every checked property
// (consistency, validity, stuck survivors, reachable decision values,
// cycle existence) is invariant under slot permutation.
type Keyer struct {
	// Symmetry enables identical-process canonicalization.  It has no
	// effect on protocols whose processes are not identical.
	Symmetry bool

	slotBuf []byte
	slotEnd []int
	order   []int
}

// AppendKey appends the (possibly canonical) compact encoding of c.
func (k *Keyer) AppendKey(c *Config, buf []byte) []byte {
	if !k.Symmetry || c.N() < 2 || !c.Proto.Identical() {
		return c.AppendKey(buf)
	}
	k.slotBuf = k.slotBuf[:0]
	k.slotEnd = k.slotEnd[:0]
	k.order = k.order[:0]
	for pid := range c.States {
		k.slotBuf = c.appendSlot(k.slotBuf, pid)
		k.slotEnd = append(k.slotEnd, len(k.slotBuf))
		k.order = append(k.order, pid)
	}
	slot := func(pid int) []byte {
		start := 0
		if pid > 0 {
			start = k.slotEnd[pid-1]
		}
		return k.slotBuf[start:k.slotEnd[pid]]
	}
	// Insertion sort on the handful of slots: allocation-free and faster
	// than sort.Slice at exploration-scale n.
	for i := 1; i < len(k.order); i++ {
		for j := i; j > 0 && bytes.Compare(slot(k.order[j]), slot(k.order[j-1])) < 0; j-- {
			k.order[j], k.order[j-1] = k.order[j-1], k.order[j]
		}
	}
	for _, pid := range k.order {
		buf = append(buf, slot(pid)...)
	}
	return c.appendObjects(buf)
}
