package dist

import (
	"encoding/binary"
	"fmt"

	"randsync/internal/frame"
)

// Wire format: length-prefixed binary frames over TCP.  A frame is
//
//	[4B big-endian length][1B type][payload][8B CRC-32C<<32 | CRC-32 of type+payload]
//
// where length counts everything after itself.  Payloads are varints
// and uvarint-length-prefixed byte strings — the same primitives as the
// compact configuration encoding, and keys travel as the verbatim
// AppendVisitKey bytes, so the visited-set encoding IS the wire
// encoding.  The trailer (package frame's checksum) rejects torn or
// corrupted frames before they can poison the visited set.

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
// as a new peer.  Version 3 dropped the JOB frame's shard count: the
// coordinator's visited set is no longer partitioned.  Version 4 is the
// CRC frame trailer.  Frame still accepts a version-3 peer's FNV-1a
// trailers, so its HELLO arrives intact and is refused by name here;
// without the bump it would join, fail the checksum of every frame the
// coordinator sends, and reconnect in a loop.
const wireVersion = 4

// helloMsg announces a worker: its wire version and its stable identity
// (non-zero, constant across reconnects of the same worker).
type helloMsg struct {
	Version  uint64
	Identity uint64
}

func (m helloMsg) encode() []byte {
	b := binary.AppendUvarint(nil, m.Version)
	return binary.AppendUvarint(b, m.Identity)
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
// integers are encoded by encoding/binary directly, and these are the
// encoding halves of the composite reads.

func putBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

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
	Epoch      uint64
}

func (m jobMsg) encode() []byte {
	b := putBytes(nil, []byte(m.Spec.Name))
	b = binary.AppendUvarint(b, uint64(m.Spec.N))
	b = binary.AppendUvarint(b, uint64(m.Spec.R))
	b = binary.AppendVarint(b, m.Spec.Rounds)
	b = binary.AppendUvarint(b, m.Spec.Seed)
	b = binary.AppendUvarint(b, uint64(len(m.Inputs)))
	for _, v := range m.Inputs {
		b = binary.AppendVarint(b, v)
	}
	flags := uint64(0)
	if m.NoSymmetry {
		flags |= 1
	}
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(len(m.Crash)))
	for _, v := range m.Crash {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendUvarint(b, uint64(m.Workers))
	b = binary.AppendUvarint(b, m.Epoch)
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
	m.Epoch = r.Uvarint("epoch")
	return m, r.Err()
}

// item is one frontier configuration: its id and the schedule that
// rebuilds it from the initial configuration.
type item struct {
	id    int64
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
	b := binary.AppendUvarint(nil, uint64(m.ID))
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendUvarint(b, uint64(len(m.Items)))
	return putItems(b, m.Items)
}

// putItems appends frontier items, the encoding a batch and a
// checkpoint's frontier share.
func putItems(b []byte, items []item) []byte {
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(it.id))
		b = putBytes(b, it.sched)
	}
	return b
}

// readItems decodes n items written by putItems.
func readItems(r *frame.Reader, n int) []item {
	var items []item
	for i := 0; i < n; i++ {
		items = append(items, item{
			id:    int64(r.Uvarint("item id")),
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
	b := binary.AppendUvarint(nil, uint64(m.ID))
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendUvarint(b, uint64(m.Generated))
	v := uint64(0)
	if m.Violated {
		v = 1
	}
	b = binary.AppendUvarint(b, v)
	b = binary.AppendUvarint(b, uint64(len(m.Decisions)))
	for _, d := range m.Decisions {
		b = binary.AppendVarint(b, d)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Emits)))
	for _, e := range m.Emits {
		b = binary.AppendUvarint(b, uint64(e.from))
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
