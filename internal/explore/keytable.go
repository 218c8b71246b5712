package explore

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// keyTable is one shard's visited set: an open-addressed, linear-probe
// slot array over an append-only, chunked key arena.  Neither holds a Go
// pointer the collector must trace per key: a slot is two integers, and
// the arena is a short list of large byte chunks.
//
// Each admitted key is appended to the arena once, as one record
//
//	fp (8 bytes, little-endian) | uvarint(id) | uvarint(len(key)) | key
//
// and its slot holds the fingerprint plus the record's arena reference.
// A slot whose fingerprint matches a probe is confirmed by comparing the
// full key in the arena, so a true fingerprint collision between distinct
// keys is just one more slot further along the probe sequence.
//
// The arena is also the shard's admission log: records sit in admission
// order, and since walks the ones after the persist mark for persistNew,
// the disk tier's one write path.  reset (eviction) empties table and
// arena but keeps their storage for the keys that follow.
//
// Both start small and double (as EdgeLog's chunks do), so a tiny job
// pays for a 64-slot table and one 4 KiB chunk, not for the sizes a
// large job grows into.
type keyTable struct {
	slots []keySlot // len is a power of two (or zero before the first insert)
	shift uint      // 64 - log2(len(slots)): home = fp·φ >> shift
	n     int       // keys admitted since the last reset

	chunks [][]byte // arena; each chunk's len is its used prefix
	cur    int      // chunk receiving appends

	// The persist mark: the arena position and key count up to which
	// records have been walked, and the collisions admitted after it.
	mark     arenaPos
	markN    int
	collided int64
}

// keySlot is one occupied or empty table slot.  ref is the record's
// arena position as (chunk+1)<<32 | offset, so 0 marks an empty slot.
type keySlot struct {
	fp  uint64
	ref uint64
}

// arenaPos is a position in the arena: a chunk index and a byte offset.
type arenaPos struct{ chunk, off int }

const (
	keyTableMinSlots = 64
	// arenaChunkMin and arenaChunkMax bound the geometric chunk sizes;
	// a record larger than the chunk due next gets a chunk of its own.
	arenaChunkMin = 4 << 10
	arenaChunkMax = 1 << 20
	// fpMix is the multiplier of the probe's home slot: the product's top
	// bits depend on every fingerprint bit, where the shard choice
	// fp mod workers fixes the low ones (with 2 workers, the low bit of
	// every key in a shard is the same).
	fpMix = 0x9e3779b97f4a7c15
)

// keyProbe is find's verdict on a missing key: the empty slot that ended
// the probe sequence, and whether the sequence passed a distinct key with
// the same fingerprint.
type keyProbe struct {
	slot     int
	collided bool
}

// find looks key up.  On a hit it returns the key's id; on a miss, the
// probe insert needs, valid until the table next changes.
func (t *keyTable) find(fp uint64, key []byte) (id int64, found bool, p keyProbe) {
	if len(t.slots) == 0 {
		return 0, false, keyProbe{slot: -1}
	}
	mask := len(t.slots) - 1
	for i := int((fp * fpMix) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			p.slot = i
			return 0, false, p
		}
		if s.fp != fp {
			continue
		}
		_, rid, rkey, _ := t.recordAt(int(s.ref>>32)-1, int(uint32(s.ref)))
		if bytes.Equal(rkey, key) {
			return rid, true, p
		}
		p.collided = true
	}
}

// insert admits key, absent from the table, under id at the probe find
// returned for it.
func (t *keyTable) insert(p keyProbe, fp uint64, key []byte, id int64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		p.slot = t.empty(fp)
	}
	t.slots[p.slot] = keySlot{fp: fp, ref: t.appendRecord(fp, id, key)}
	t.n++
	if p.collided {
		t.collided++
	}
}

// grow doubles the slot array (or allocates the first one) and re-places
// every occupied slot by its fingerprint alone: the keys are distinct, so
// no comparison is needed.
func (t *keyTable) grow() {
	old := t.slots
	size := max(keyTableMinSlots, 2*len(old))
	t.slots = make([]keySlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.ref != 0 {
			t.slots[t.empty(s.fp)] = s
		}
	}
}

// empty returns the first empty slot of fp's probe sequence.
func (t *keyTable) empty(fp uint64) int {
	mask := len(t.slots) - 1
	i := int((fp * fpMix) >> t.shift)
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	return i
}

// appendRecord appends one record to the arena and returns its slot ref.
func (t *keyTable) appendRecord(fp uint64, id int64, key []byte) uint64 {
	need := 8 + 2*binary.MaxVarintLen64 + len(key)
	if len(t.chunks) == 0 || cap(t.chunks[t.cur])-len(t.chunks[t.cur]) < need {
		t.nextChunk(need)
	}
	c := t.chunks[t.cur]
	off := len(c)
	c = binary.LittleEndian.AppendUint64(c, fp)
	c = binary.AppendUvarint(c, uint64(id))
	c = binary.AppendUvarint(c, uint64(len(key)))
	t.chunks[t.cur] = append(c, key...)
	return uint64(t.cur+1)<<32 | uint64(off)
}

// nextChunk moves appends to the next chunk with room for need bytes:
// the one after cur if a reset left it behind and it is large enough,
// else a new chunk of the next geometric size (or of need, if larger).
func (t *keyTable) nextChunk(need int) {
	next := 0
	if len(t.chunks) > 0 {
		next = t.cur + 1
	}
	if next < len(t.chunks) && cap(t.chunks[next]) >= need {
		t.cur = next
		return
	}
	size := arenaChunkMax
	if next < 8 { // 4 KiB << 8 = 1 MiB
		size = arenaChunkMin << next
	}
	c := make([]byte, 0, max(size, need))
	if next < len(t.chunks) {
		t.chunks[next] = c
	} else {
		t.chunks = append(t.chunks, c)
	}
	t.cur = next
}

// recordAt decodes the record at (chunk, off) and returns the offset just
// past it.  The key aliases the arena.
func (t *keyTable) recordAt(chunk, off int) (fp uint64, id int64, key []byte, end int) {
	c := t.chunks[chunk][off:]
	fp = binary.LittleEndian.Uint64(c)
	uid, n := binary.Uvarint(c[8:])
	klen, m := binary.Uvarint(c[8+n:])
	start := 8 + n + m
	return fp, int64(uid), c[start : start+int(klen) : start+int(klen)], off + start + int(klen)
}

// since walks the records admitted after the persist mark, in admission
// order.  The keys alias the arena: valid until the next reset.
func (t *keyTable) since(fn func(fp uint64, id int64, key []byte)) {
	if len(t.chunks) == 0 {
		return
	}
	for c, off := t.mark.chunk, t.mark.off; c <= t.cur; c, off = c+1, 0 {
		for off < len(t.chunks[c]) {
			fp, id, key, end := t.recordAt(c, off)
			fn(fp, id, key)
			off = end
		}
	}
}

// pending returns the keys admitted after the persist mark, and how many
// of them collided with a distinct key's fingerprint.
func (t *keyTable) pending() (keys int, collided int64) {
	return t.n - t.markN, t.collided
}

// markPersisted moves the persist mark to the end of the arena.
func (t *keyTable) markPersisted() {
	t.mark, t.markN, t.collided = t.end(), t.n, 0
}

// end is the arena position just past the last record.
func (t *keyTable) end() arenaPos {
	if len(t.chunks) == 0 {
		return arenaPos{}
	}
	return arenaPos{chunk: t.cur, off: len(t.chunks[t.cur])}
}

// reset empties the table and the arena, keeping their storage.
func (t *keyTable) reset() {
	clear(t.slots)
	for i := range t.chunks {
		t.chunks[i] = t.chunks[i][:0]
	}
	t.cur, t.n = 0, 0
	t.mark, t.markN, t.collided = arenaPos{}, 0, 0
}

// KeySet is a visited set for a single-threaded owner that numbers its
// keys by admission: the k-th key admitted since the last Reset has id
// k, so ids are dense from 0.  It is one keyTable, never marked, so its
// arena is also the admission-order key list.
type KeySet struct{ t keyTable }

// Lookup returns key's id if the set holds it, and admits nothing.
func (s *KeySet) Lookup(fp uint64, key []byte) (id int64, found bool) {
	id, found, _ = s.t.find(fp, key)
	return id, found
}

// Admit returns key's id, admitting it under the next id if absent;
// fresh reports whether this call admitted it.  fp is the key's
// fingerprint, which must be a function of the key alone.
func (s *KeySet) Admit(fp uint64, key []byte) (id int64, fresh bool) {
	id, found, p := s.t.find(fp, key)
	if found {
		return id, false
	}
	id = int64(s.t.n)
	s.t.insert(p, fp, key, id)
	return id, true
}

// Len returns the number of keys admitted.
func (s *KeySet) Len() int { return s.t.n }

// Reset empties the set, keeping its storage; ids restart from 0.
func (s *KeySet) Reset() { s.t.reset() }

// Keys calls fn on every key in admission order (the key with id i is
// the i-th call).  The key aliases the set's storage and is valid only
// during the call.
func (s *KeySet) Keys(fn func(key []byte)) {
	s.t.since(func(_ uint64, _ int64, key []byte) { fn(key) })
}
