package dist

import (
	"encoding/binary"
	"fmt"

	"randsync/internal/frame"
)

// Wire format: length-prefixed binary frames over TCP.  A frame is
//
//	[4B big-endian length][1B type][payload][8B FNV-1a of type+payload]
//
// where length counts everything after itself.  Payloads are varints
// and uvarint-length-prefixed byte strings — the same primitives as the
// compact configuration encoding, and keys travel as the verbatim
// AppendVisitKey bytes, so the visited-set encoding IS the wire
// encoding.  The trailing fingerprint (sim.FingerprintBytes, the same
// hash that shards the visited set) rejects torn or corrupted frames
// before they can poison the mirror.

const (
	msgHello byte = iota + 1 // worker→coord: wire version + stable identity
	msgJob                   // coord→worker: job + current input vector
	msgBatch                 // coord→worker: frontier items to process
	msgDone                  // worker→coord: atomic effects of one batch
	msgPing                  // coord→worker: liveness probe
	msgPong                  // worker→coord: probe echo
	msgStop                  // coord→worker: job finished, disconnect
)

// Version 2 extended HELLO with the worker's stable identity, which is
// what lets a reconnecting worker rejoin as itself instead of counting
// as a new peer.
const wireVersion = 2

// helloMsg announces a worker: its wire version and its stable identity
// (non-zero, constant across reconnects of the same worker).
type helloMsg struct {
	Version  uint64
	Identity uint64
}

func (m helloMsg) encode() []byte {
	b := putUvarint(nil, m.Version)
	return putUvarint(b, m.Identity)
}

func decodeHello(p []byte) (helloMsg, error) {
	r := frame.NewReader(p)
	var m helloMsg
	m.Version = r.Uvarint("hello version")
	m.Identity = r.Uvarint("hello identity")
	if err := r.Err(); err != nil {
		return helloMsg{}, err
	}
	if m.Version != wireVersion {
		return helloMsg{}, fmt.Errorf("dist: peer speaks wire version %d, want %d", m.Version, wireVersion)
	}
	if m.Identity == 0 {
		return helloMsg{}, fmt.Errorf("dist: worker identity must be non-zero")
	}
	return m, nil
}

// --- payload primitives ---
//
// Payloads are decoded by frame.Reader, the one sticky-error decoder;
// these are its encoding halves.

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func putVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func putBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putString(b []byte, s string) []byte { return putBytes(b, []byte(s)) }

// --- messages ---

// jobMsg carries everything a worker needs to check one input vector.
// Epoch identifies the vector (1-based index in canonical order): the
// network may drop, reorder, or duplicate whole frames, so every batch
// and every completion is stamped with the epoch of the job it belongs
// to — a worker that missed a JOB frame is detected by the mismatch
// instead of silently exploring the wrong input vector's state space.
type jobMsg struct {
	Spec       ProtoSpec
	Inputs     []int64
	NoSymmetry bool
	Crash      []int
	Workers    int // worker-local explore.Each width per batch
	Shards     int
	Epoch      uint64
}

func (m jobMsg) encode() []byte {
	b := putString(nil, m.Spec.Name)
	b = putUvarint(b, uint64(m.Spec.N))
	b = putUvarint(b, uint64(m.Spec.R))
	b = putVarint(b, m.Spec.Rounds)
	b = putUvarint(b, m.Spec.Seed)
	b = putUvarint(b, uint64(len(m.Inputs)))
	for _, v := range m.Inputs {
		b = putVarint(b, v)
	}
	flags := uint64(0)
	if m.NoSymmetry {
		flags |= 1
	}
	b = putUvarint(b, flags)
	b = putUvarint(b, uint64(len(m.Crash)))
	for _, v := range m.Crash {
		b = putVarint(b, int64(v))
	}
	b = putUvarint(b, uint64(m.Workers))
	b = putUvarint(b, uint64(m.Shards))
	b = putUvarint(b, m.Epoch)
	return b
}

func decodeJob(p []byte) (jobMsg, error) {
	r := frame.NewReader(p)
	var m jobMsg
	m.Spec.Name = string(r.Bytes("spec name"))
	m.Spec.N = int(r.Uvarint("spec n"))
	m.Spec.R = int(r.Uvarint("spec r"))
	m.Spec.Rounds = r.Varint("spec rounds")
	m.Spec.Seed = r.Uvarint("spec seed")
	for i, n := 0, r.Count("inputs len"); i < n; i++ {
		m.Inputs = append(m.Inputs, r.Varint("input"))
	}
	flags := r.Uvarint("flags")
	m.NoSymmetry = flags&1 != 0
	for i, n := 0, r.Count("crash len"); i < n; i++ {
		m.Crash = append(m.Crash, int(r.Varint("crash")))
	}
	m.Workers = int(r.Uvarint("workers"))
	m.Shards = int(r.Uvarint("shards"))
	m.Epoch = r.Uvarint("epoch")
	return m, r.Err()
}

// item is one frontier configuration: its global id and the schedule
// that rebuilds it from the initial configuration.
type item struct {
	gid   int64
	sched []byte
}

// batchMsg dispatches frontier items to a worker.  Epoch is the vector
// the items belong to; a worker holding a different job epoch must not
// process them.
type batchMsg struct {
	ID    int64
	Epoch uint64
	Items []item
}

func (m batchMsg) encode() []byte {
	b := putUvarint(nil, uint64(m.ID))
	b = putUvarint(b, m.Epoch)
	b = putUvarint(b, uint64(len(m.Items)))
	return putItems(b, m.Items)
}

// putItems appends frontier items, the encoding a batch and a
// checkpoint's frontier share.
func putItems(b []byte, items []item) []byte {
	for _, it := range items {
		b = putUvarint(b, uint64(it.gid))
		b = putBytes(b, it.sched)
	}
	return b
}

// readItems decodes n items written by putItems.
func readItems(r *frame.Reader, n int) []item {
	var items []item
	for i := 0; i < n; i++ {
		items = append(items, item{
			gid:   int64(r.Uvarint("item gid")),
			sched: r.Bytes("item sched"),
		})
	}
	return items
}

func decodeBatch(p []byte) (batchMsg, error) {
	r := frame.NewReader(p)
	var m batchMsg
	m.ID = int64(r.Uvarint("batch id"))
	m.Epoch = r.Uvarint("batch epoch")
	m.Items = readItems(r, r.Count("batch len"))
	return m, r.Err()
}

// emit is one generated successor shipped back to the coordinator: the
// configuration-graph edge source, the successor's visit key (dedup
// identity), and its schedule (frontier payload if admitted).
type emit struct {
	from  int64
	key   []byte
	sched []byte
}

// doneMsg is the atomic effect set of one processed batch.  Epoch
// echoes the job epoch the worker processed the batch under: the
// coordinator refuses effects computed against any other vector.
type doneMsg struct {
	ID        int64
	Epoch     uint64
	Generated int64
	Violated  bool
	Decisions []int64
	Emits     []emit
}

func (m doneMsg) encode() []byte {
	b := putUvarint(nil, uint64(m.ID))
	b = putUvarint(b, m.Epoch)
	b = putUvarint(b, uint64(m.Generated))
	v := uint64(0)
	if m.Violated {
		v = 1
	}
	b = putUvarint(b, v)
	b = putUvarint(b, uint64(len(m.Decisions)))
	for _, d := range m.Decisions {
		b = putVarint(b, d)
	}
	b = putUvarint(b, uint64(len(m.Emits)))
	for _, e := range m.Emits {
		b = putUvarint(b, uint64(e.from))
		b = putBytes(b, e.key)
		b = putBytes(b, e.sched)
	}
	return b
}

func decodeDone(p []byte) (doneMsg, error) {
	r := frame.NewReader(p)
	var m doneMsg
	m.ID = int64(r.Uvarint("done id"))
	m.Epoch = r.Uvarint("done epoch")
	m.Generated = int64(r.Uvarint("done generated"))
	m.Violated = r.Uvarint("done violated") != 0
	for i, n := 0, r.Count("done decisions"); i < n; i++ {
		m.Decisions = append(m.Decisions, r.Varint("decision"))
	}
	for i, n := 0, r.Count("done emits"); i < n; i++ {
		m.Emits = append(m.Emits, emit{
			from:  int64(r.Uvarint("emit from")),
			key:   r.Bytes("emit key"),
			sched: r.Bytes("emit sched"),
		})
	}
	return m, r.Err()
}
