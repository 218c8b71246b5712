package dist

import (
	"encoding/binary"
	"fmt"
	"io"

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
	r := &wreader{b: p}
	var m helloMsg
	m.Version = r.uvarint("hello version")
	m.Identity = r.uvarint("hello identity")
	if err := r.err(); err != nil {
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

// maxFrame bounds a frame so a corrupted length prefix cannot allocate
// unboundedly.  Emit-heavy DONE frames dominate; 1<<26 (64 MiB) is far
// above anything a batch of batchSize items can produce, and no caller
// can raise batchSize.
const maxFrame = frame.MaxFrame

// The envelope itself lives in internal/frame, which the exploration
// engine's spill tier shares; these delegates keep dist call sites
// unchanged while guaranteeing the wire format and the on-disk spill
// format stay one codec.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	return frame.Write(w, typ, payload)
}

func readFrame(r io.Reader) (byte, []byte, error) {
	return frame.Read(r)
}

// --- payload primitives ---

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func putVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func putBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putString(b []byte, s string) []byte { return putBytes(b, []byte(s)) }

// wreader decodes a payload with sticky-error semantics: after any
// decode failure every further read returns zero values and err() holds
// the first failure, so message decoders read straight through and
// check once.
type wreader struct {
	b    []byte
	fail error
}

func (r *wreader) seterr(what string) {
	if r.fail == nil {
		r.fail = fmt.Errorf("dist: truncated %s in frame", what)
	}
}

func (r *wreader) uvarint(what string) uint64 {
	if r.fail != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.seterr(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wreader) varint(what string) int64 {
	if r.fail != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.seterr(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wreader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.fail != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.seterr(what)
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *wreader) str(what string) string { return string(r.bytes(what)) }

func (r *wreader) err() error {
	if r.fail != nil {
		return r.fail
	}
	if len(r.b) != 0 {
		return fmt.Errorf("dist: %d trailing bytes in frame", len(r.b))
	}
	return nil
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
	r := &wreader{b: p}
	var m jobMsg
	m.Spec.Name = r.str("spec name")
	m.Spec.N = int(r.uvarint("spec n"))
	m.Spec.R = int(r.uvarint("spec r"))
	m.Spec.Rounds = r.varint("spec rounds")
	m.Spec.Seed = r.uvarint("spec seed")
	ni := r.uvarint("inputs len")
	for i := uint64(0); i < ni && r.fail == nil; i++ {
		m.Inputs = append(m.Inputs, r.varint("input"))
	}
	flags := r.uvarint("flags")
	m.NoSymmetry = flags&1 != 0
	nc := r.uvarint("crash len")
	for i := uint64(0); i < nc && r.fail == nil; i++ {
		m.Crash = append(m.Crash, int(r.varint("crash")))
	}
	m.Workers = int(r.uvarint("workers"))
	m.Shards = int(r.uvarint("shards"))
	m.Epoch = r.uvarint("epoch")
	return m, r.err()
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

func decodeBatch(p []byte) (batchMsg, error) {
	r := &wreader{b: p}
	var m batchMsg
	m.ID = int64(r.uvarint("batch id"))
	m.Epoch = r.uvarint("batch epoch")
	n := r.uvarint("batch len")
	for i := uint64(0); i < n && r.fail == nil; i++ {
		m.Items = append(m.Items, item{
			gid:   int64(r.uvarint("item gid")),
			sched: r.bytes("item sched"),
		})
	}
	return m, r.err()
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
	r := &wreader{b: p}
	var m doneMsg
	m.ID = int64(r.uvarint("done id"))
	m.Epoch = r.uvarint("done epoch")
	m.Generated = int64(r.uvarint("done generated"))
	m.Violated = r.uvarint("done violated") != 0
	nd := r.uvarint("done decisions")
	for i := uint64(0); i < nd && r.fail == nil; i++ {
		m.Decisions = append(m.Decisions, r.varint("decision"))
	}
	ne := r.uvarint("done emits")
	for i := uint64(0); i < ne && r.fail == nil; i++ {
		m.Emits = append(m.Emits, emit{
			from:  int64(r.uvarint("emit from")),
			key:   r.bytes("emit key"),
			sched: r.bytes("emit sched"),
		})
	}
	return m, r.err()
}
