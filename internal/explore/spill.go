package explore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"randsync/internal/frame"
)

// This file is the disk tier under the shard-owned exploration engine:
// the storage layer that lets an exhaustive run degrade gracefully from
// RAM to disk instead of truncating when the visited set or the frontier
// outgrow the memory budget.
//
// Three structures live here, all speaking the internal/frame envelope
// (the same checksummed [len][type][payload][checksum] format as the
// distributed wire protocol and its checkpoints):
//
//   - spillTier: the cold half of the visited set.  A shard owner
//     writes the keys it admitted since its last write as one sorted run
//     file — entries ordered by (fingerprint, key), grouped into
//     checksummed block frames of runBlockEntries entries, with an
//     in-memory block index and a per-run bloom filter — at every
//     checkpoint cut (RAM keeps them) and when its interned key bytes
//     exceed its hot budget (RAM is then dropped and the shard is cold).
//     Each key is written once.  Only a cold shard's RAM miss probes the
//     runs, newest-first: bloom test, binary search of the block index,
//     one bounded checksum-verified block read (~1.1 KiB for
//     counter-walk's keys) into the shard's own buffer, and a scan of
//     the block where it lies — no allocation.  When a shard accumulates
//     too many runs they are stream-merged into one.
//   - spillQueue: the cold half of the frontier.  A worker whose pending
//     queue runs deep spills the oldest half to a segment file (items
//     encoded by the caller — the valency engine uses the compact
//     schedule encoding, so a configuration costs a few bytes); the
//     segment is reloaded by its owner when RAM work runs out.
//   - the manifest: one atomically-replaced file naming every run and
//     segment that belongs to the last consistent checkpoint, plus the
//     engine counters and edge log as of that cut.  Resume trusts only
//     the manifest: files it does not name are deleted, so a crash
//     mid-flush, mid-compaction or mid-spill can never smuggle
//     post-checkpoint state into a resumed run.
//
// Fault model: every disk operation goes through frame.FS (so the
// seeded injector fault.DiskChaos can interpose) and is wrapped in
// frame.Retry, and the manifest is a frame.Record; headers and the
// manifest decode with frame.Reader, and only the block iterator
// below, the lookup hot path, decodes by hand.  A fault that outlasts
// the retries is unrecoverable; the engine then stops with the honest
// "incomplete" verdict.  A read that succeeds but returns corrupted bytes is caught
// by the frame checksums and handled the same way.  No disk fault can
// produce a wrong verdict: the tier either serves the truth or fails
// loudly.

// Spill frame types (distinct from the dist wire/checkpoint types so a
// stray file is never misread).
const (
	frameRunHeader byte = 0x52 // 'R': run file header
	frameRunBlock  byte = 0x42 // 'B': sorted entry block
	frameSegHeader byte = 0x46 // 'F': frontier segment header
	frameSegItem   byte = 0x49 // 'I': one frontier item
	frameManifest  byte = 0x4D // 'M': checkpoint manifest
)

// spillVersion versions every spill artifact (runs, segments, manifest).
const spillVersion = 1

// runBlockEntries is the number of entries per run block frame a writer
// emits.  A probe reads and checksums one whole block, so the block is
// the unit of probe cost, and in a graph search most probes are hits
// that no bloom filter can skip.  What a larger block buys is a smaller
// RAM block index: 24 bytes per block, beside a bloom filter that costs
// 2–4 B per entry.  Measured on the benchmark's spill-evict job
// (counter-walk n=3, 64 KiB hot set, 2 workers on 2 vCPUs; DESIGN.md §6):
//
//	entries  verdict p50  bytes per block read  index per cold entry
//	     16      0.125 s                  567 B                1.5 B
//	     32      0.149 s                1,122 B               0.75 B
//	     64      0.182 s                2,226 B               0.38 B
//	    256      0.401 s                8,656 B               0.09 B
//
// 32 is the knee: halving it again buys ~15 % for twice the index RAM.
const runBlockEntries = 32

// maxRunBlockEntries is the largest block a reader accepts.  Readers
// take any count up to it, so a run file resumes whatever block size its
// writer used (spill directories written before runBlockEntries was 32
// hold 256-entry blocks) and the writers' choice can move without a
// format change.
const maxRunBlockEntries = 256

// runWriteChunk is how many encoded bytes a run writer gathers before
// it issues one write: blocks are small, writes should not be.
const runWriteChunk = 64 << 10

// maxRunsPerShard triggers merge-compaction: a lookup miss costs one
// bloom test per run, so unbounded run counts would decay probes.
const maxRunsPerShard = 4

// ManifestName is the checkpoint manifest file within a spill
// directory; callers detect a resumable directory by it (to refuse a
// non-resume run where a previous run's cut still lies).
const ManifestName = "MANIFEST"

// SpillStats is the disk-tier telemetry of one sharded run; all zero
// when tiering is off.
type SpillStats struct {
	// Keys and Bytes count visited-set entries (and their key bytes)
	// resident in run files at the end of the run.
	Keys  int64 `json:"keys"`
	Bytes int64 `json:"bytes"`
	// Runs is the number of live run files at the end of the run.
	Runs int `json:"runs,omitempty"`
	// Flushes counts run files written by evictions and checkpoint cuts
	// (each holds the keys its shard admitted since its last write);
	// Compactions counts run merges.
	Flushes     int64 `json:"flushes,omitempty"`
	Compactions int64 `json:"compactions,omitempty"`
	// Lookups counts membership probes that consulted the disk tier;
	// LookupHits found the key on disk.  In a graph search most probes
	// are hits — re-discoveries of an evicted configuration — and a hit
	// always reads a block; the bloom filters only short the misses.
	Lookups    int64 `json:"lookups,omitempty"`
	LookupHits int64 `json:"lookup_hits,omitempty"`
	// BlockReads counts the run blocks actually fetched from disk (by
	// probes and by compaction merges), BlockBytes their encoded bytes.
	BlockReads int64 `json:"block_reads,omitempty"`
	BlockBytes int64 `json:"block_bytes,omitempty"`
	// FrontierSpilled/FrontierLoaded count pending items written to and
	// reloaded from segment files.
	FrontierSpilled int64 `json:"frontier_spilled,omitempty"`
	FrontierLoaded  int64 `json:"frontier_loaded,omitempty"`
	// Checkpoints counts durable manifests written; Resumed reports
	// whether this run restarted from one.
	Checkpoints int64 `json:"checkpoints,omitempty"`
	Resumed     bool  `json:"resumed,omitempty"`
	// Retries counts disk operations that needed another attempt;
	// SoftFails counts non-fatal gives-ups (a frontier spill that failed
	// and fell back to RAM).
	Retries   int64 `json:"retries,omitempty"`
	SoftFails int64 `json:"soft_fails,omitempty"`
}

// spillEntry is one visited-set entry on its way to or from disk.  A
// flushed entry's key is a view into its shard's key arena, valid until
// the reset that follows the flush.
type spillEntry struct {
	fp  uint64
	id  int64
	key []byte
}

// tierBlock is one block's index entry: its frame offset and the
// fingerprint range of the sorted entries inside.  The frame's length is
// the distance to the next block's offset (tierRun.end for the last).
type tierBlock struct {
	off         int64
	first, last uint64
}

// tierRun is one sorted run file: the on-disk entries plus the RAM-side
// lookup structures (bloom filter 2–4 bytes and block index 0.75 bytes
// per entry at runBlockEntries).
type tierRun struct {
	name   string
	count  int64
	bytes  int64 // key bytes resident in the run
	end    int64 // offset just past the last block frame
	bloom  []uint64
	blocks []tierBlock
	f      frame.File
}

// tierShard is one worker's run set, with the buffers and counters its
// probes and flushes use; owner-access only (the engine serializes
// checkpoint/resume access), so none of it is shared or atomic.
type tierShard struct {
	gen  int64
	runs []*tierRun // oldest first; lookups walk newest first

	probe []byte    // block buffer of lookup and openRun
	w     runWriter // its buffers outlive the run they last wrote

	lookups, hits          int64
	blockReads, blockBytes int64

	// Shards sit side by side in one slice and each is written by its own
	// worker on every probe: keep neighbours off each other's cache line.
	_ [64]byte
}

// spillTier is the disk-resident half of a sharded visited set.
type spillTier struct {
	fs     frame.FS
	dir    string
	shards []tierShard

	// blockEntries is the writers' block size: runBlockEntries, except in
	// tests that write another layout (the 256-entry blocks of older run
	// files, or blocks small enough to cut a tiny run into many).
	blockEntries int64

	// deferDelete keeps superseded files on disk until the next durable
	// manifest no longer references them (crash-safe compaction); off
	// when the run is not checkpointing.
	deferDelete bool
	obMu        sync.Mutex
	obsolete    []string

	retries     atomic.Int64
	flushes     atomic.Int64
	compactions atomic.Int64
	collFlushed atomic.Int64
	softFails   atomic.Int64
}

func newSpillTier(fs frame.FS, dir string, shards int, deferDelete bool) *spillTier {
	return &spillTier{fs: fs, dir: dir, shards: make([]tierShard, shards), blockEntries: runBlockEntries, deferDelete: deferDelete}
}

// --- bloom filter ---
// ~16 bits and 4 probes per key: false-positive rate well under 1%, so
// almost every lookup for an absent key is answered without disk I/O.

func bloomSize(count int64) int {
	bits := count * 16
	words := 4
	for int64(words)*64 < bits {
		words *= 2
	}
	return words
}

func bloomProbe(fp uint64, i int) uint64 {
	// Two derived hashes, Kirsch–Mitzenmacher double hashing.
	h2 := fp*0x9e3779b97f4a7c15 ^ fp>>32
	return fp + uint64(i)*h2
}

func bloomAdd(bits []uint64, fp uint64) {
	mask := uint64(len(bits)*64 - 1)
	for i := 0; i < 4; i++ {
		b := bloomProbe(fp, i) & mask
		bits[b/64] |= 1 << (b % 64)
	}
}

func bloomHas(bits []uint64, fp uint64) bool {
	mask := uint64(len(bits)*64 - 1)
	for i := 0; i < 4; i++ {
		b := bloomProbe(fp, i) & mask
		if bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// --- run files ---

// runName names shard s's generation-g run file.
func runName(shard int, gen int64) string {
	return fmt.Sprintf("s%03d-g%06d.run", shard, gen)
}

// encodeRunHeader builds the run header payload.
func encodeRunHeader(shard int, gen, count int64) []byte {
	b := binary.AppendUvarint(nil, spillVersion)
	b = binary.AppendUvarint(b, uint64(shard))
	b = binary.AppendUvarint(b, uint64(gen))
	return binary.AppendUvarint(b, uint64(count))
}

// flush writes entries (the keys a shard admitted since it last wrote)
// as a new sorted run and registers it for lookups.  Entries must all belong to shard; the
// slice is sorted in place.  On success the shard may be compacted.
func (t *spillTier) flush(shard int, entries []spillEntry, collisions int64) error {
	slices.SortFunc(entries, func(a, b spillEntry) int {
		if a.fp != b.fp {
			return cmp.Compare(a.fp, b.fp)
		}
		return bytes.Compare(a.key, b.key)
	})
	sh := &t.shards[shard]
	run, err := t.writeRun(shard, sh.gen+1, int64(len(entries)), func(rw *runWriter) error {
		for i := range entries {
			if err := addRunEntry(rw, entries[i].fp, entries[i].id, entries[i].key); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sh.gen++
	sh.runs = append(sh.runs, run)
	t.flushes.Add(1)
	t.collFlushed.Add(collisions)
	if len(sh.runs) > maxRunsPerShard {
		return t.compact(shard)
	}
	return nil
}

// runWriter lays out one run file from entries arriving in (fp, key)
// order: it cuts them into block frames, builds the run's block index
// and bloom filter as it goes, and gathers frames into large writes.
// The header carries the entry count, so every block's count is known
// when the block opens.
type runWriter struct {
	w     io.Writer
	run   *tierRun
	per   int64  // entries to a full block
	left  int64  // entries still to come
	blk   int64  // of those, into the open block
	first uint64 // first fingerprint of the open block

	payload []byte // the open block
	out     []byte // encoded frames not yet written
	written int64  // bytes handed to w
}

// begin resets rw (keeping its buffers) and run's lookup structures for
// one write attempt and queues the header frame.
func (rw *runWriter) begin(w io.Writer, run *tierRun, shard int, gen, per int64) {
	*rw = runWriter{w: w, run: run, per: per, left: run.count, payload: rw.payload[:0], out: rw.out[:0]}
	run.bytes = 0
	run.bloom = make([]uint64, bloomSize(run.count))
	run.blocks = make([]tierBlock, 0, (run.count+per-1)/per)
	rw.out = frame.Append(rw.out, frameRunHeader, encodeRunHeader(shard, gen, run.count))
}

// addRunEntry appends the next entry; keys arrive as arena views from a
// flush and as block-buffer bytes from a merge.
func addRunEntry(rw *runWriter, fp uint64, id int64, key []byte) error {
	if rw.left == 0 {
		return fmt.Errorf("explore: spill run %s holds more entries than its header count %d", rw.run.name, rw.run.count)
	}
	if rw.blk == 0 {
		rw.blk = min(rw.left, rw.per)
		rw.first = fp
		rw.payload = binary.AppendUvarint(rw.payload[:0], uint64(rw.blk))
	}
	rw.payload = binary.BigEndian.AppendUint64(rw.payload, fp)
	rw.payload = binary.AppendUvarint(rw.payload, uint64(id))
	rw.payload = binary.AppendUvarint(rw.payload, uint64(len(key)))
	rw.payload = append(rw.payload, key...)
	bloomAdd(rw.run.bloom, fp)
	rw.run.bytes += int64(len(key))
	rw.left--
	if rw.blk--; rw.blk > 0 {
		return nil
	}
	rw.run.blocks = append(rw.run.blocks, tierBlock{off: rw.written + int64(len(rw.out)), first: rw.first, last: fp})
	rw.out = frame.Append(rw.out, frameRunBlock, rw.payload)
	if len(rw.out) >= runWriteChunk {
		return rw.write()
	}
	return nil
}

func (rw *runWriter) write() error {
	n, err := rw.w.Write(rw.out)
	rw.written += int64(n)
	rw.out = rw.out[:0]
	return err
}

// finish writes what is still gathered and closes the index.
func (rw *runWriter) finish() error {
	if rw.left != 0 {
		return fmt.Errorf("explore: spill run %s is %d entries short of its header count %d", rw.run.name, rw.left, rw.run.count)
	}
	err := rw.write()
	rw.run.end = rw.written
	return err
}

// writeRun durably writes one sorted run file of count entries and opens
// it for lookups; emit feeds the entries, in order, to the writer it is
// handed.  The whole write retries as a unit — emit is called again from
// the start — because WriteFileAtomic never exposes a partial file under
// the final name, so a retry simply rewrites the temp sibling.
func (t *spillTier) writeRun(shard int, gen, count int64, emit func(rw *runWriter) error) (*tierRun, error) {
	run := &tierRun{name: runName(shard, gen), count: count}
	path := filepath.Join(t.dir, run.name)
	rw := &t.shards[shard].w
	err := frame.Retry(&t.retries, func() error {
		return frame.WriteFileAtomic(t.fs, path, func(w io.Writer) error {
			rw.begin(w, run, shard, gen, t.blockEntries)
			if err := emit(rw); err != nil {
				return err
			}
			return rw.finish()
		})
	})
	if err != nil {
		return nil, fmt.Errorf("explore: spill run %s: %w", run.name, err)
	}
	err = frame.Retry(&t.retries, func() error {
		f, oerr := t.fs.Open(path)
		if oerr != nil {
			return oerr
		}
		run.f = f
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("explore: open spill run %s: %w", run.name, err)
	}
	return run, nil
}

// openRun loads an existing run file (resume path): it re-reads every
// block sequentially — verifying every frame checksum — and rebuilds the
// block index and bloom filter.
func (t *spillTier) openRun(shard int, name string, wantCount int64) (*tierRun, error) {
	path := filepath.Join(t.dir, name)
	run := &tierRun{name: name, count: wantCount}
	buf := &t.shards[shard].probe
	err := frame.Retry(&t.retries, func() error {
		f, err := t.fs.Open(path)
		if err != nil {
			return err
		}
		if err := run.index(f, buf); err != nil {
			f.Close()
			return err
		}
		run.f = f
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("explore: resume spill run %s: %w", name, err)
	}
	return run, nil
}

// index walks f's frames from the start and (re)builds run's lookup
// structures; the header must agree with run.count.  A read that failed
// comes back as is, for a retry; every other failure is about the
// file's bytes and wraps frame.ErrCorrupt.
func (run *tierRun) index(f frame.File, buf *[]byte) error {
	run.blocks = run.blocks[:0]
	run.bloom = make([]uint64, bloomSize(run.count))
	run.bytes = 0
	hdr, off, err := readRunFrame(f, 0, frameRunHeader, buf)
	if err != nil {
		return fmt.Errorf("bad run header: %w", err)
	}
	r := frame.NewReader(hdr)
	if v := r.Uvarint("version"); v != spillVersion {
		return badRun(fmt.Errorf("run version %d, want %d", v, spillVersion))
	}
	r.Uvarint("shard")
	r.Uvarint("gen")
	count := int64(r.Uvarint("count"))
	if r.Err() != nil || count != run.count {
		return badRun(fmt.Errorf("run header count %d, manifest says %d", count, run.count))
	}
	var seen int64
	for seen < count {
		payload, next, err := readRunFrame(f, off, frameRunBlock, buf)
		if err != nil {
			return fmt.Errorf("bad run block at %d: %w", off, err)
		}
		it, err := iterBlock(payload)
		if err != nil {
			return badRun(err)
		}
		blk := tierBlock{off: off}
		for first := true; it.next(); first = false {
			if first {
				blk.first = it.fp
			}
			blk.last = it.fp
			bloomAdd(run.bloom, it.fp)
			run.bytes += int64(len(it.key()))
			seen++
		}
		if err := it.err(); err != nil {
			return badRun(err)
		}
		run.blocks = append(run.blocks, blk)
		off = next
	}
	if seen != count {
		return badRun(fmt.Errorf("run holds %d entries, header says %d", seen, count))
	}
	run.end = off
	return nil
}

// readRunFrame reads the frame at off of a run being indexed, which
// must be of type want.  A frame cut short by the end of the file is
// corrupt, like one failing its checksum.
func readRunFrame(f frame.File, off int64, want byte, buf *[]byte) (payload []byte, next int64, err error) {
	typ, payload, next, err := frame.ReadAtInto(f, off, 0, buf)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return nil, 0, badRun(err)
	case err != nil:
		return nil, 0, err // frame.ErrCorrupt, or the read failure
	case typ != want:
		return nil, 0, badRun(fmt.Errorf("frame type %d, want %d", typ, want))
	}
	return payload, next, nil
}

// badRun marks err as a fault of a run file's bytes.
func badRun(err error) error { return fmt.Errorf("%w (%w)", err, frame.ErrCorrupt) }

// blockIter walks the entries of one block frame's payload (already
// checksum-verified by the frame layer) where they lie: no entry slice,
// no strings, and — the payload is indexed, never re-sliced — no pointer
// stores, so the scan runs free of GC write barriers.
type blockIter struct {
	b          []byte
	off        int // next undecoded byte
	left       int // entries not yet decoded
	fp         uint64
	id         int64
	kOff, kEnd int // the entry's key is b[kOff:kEnd]
	fail       error
}

func iterBlock(payload []byte) (blockIter, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n == 0 || n > maxRunBlockEntries {
		return blockIter{}, fmt.Errorf("explore: spill block count %d out of range", n)
	}
	return blockIter{b: payload, off: k, left: int(n)}, nil
}

// next decodes the following entry into fp, id and key; false is the end
// of the block or a malformed entry — err tells them apart.
func (it *blockIter) next() bool {
	if it.left == 0 {
		return false
	}
	b := it.b[it.off:]
	if len(b) < 8 {
		return it.truncated("entry fp")
	}
	id, n := binary.Uvarint(b[8:])
	if n <= 0 {
		return it.truncated("entry id")
	}
	klen, m := binary.Uvarint(b[8+n:])
	if m <= 0 || uint64(len(b)-8-n-m) < klen {
		return it.truncated("entry key")
	}
	it.fp, it.id = binary.BigEndian.Uint64(b), int64(id)
	it.kOff = it.off + 8 + n + m
	it.kEnd = it.kOff + int(klen)
	it.off = it.kEnd
	it.left--
	return true
}

func (it *blockIter) truncated(what string) bool {
	it.left, it.fail = 0, fmt.Errorf("explore: truncated %s in spill frame", what)
	return false
}

func (it *blockIter) key() []byte { return it.b[it.kOff:it.kEnd] }

// err reports why next returned false: nil only when every entry decoded
// and the payload ended with the last one.
func (it *blockIter) err() error {
	if it.fail == nil && it.off != len(it.b) {
		return fmt.Errorf("explore: %d trailing bytes in spill frame", len(it.b)-it.off)
	}
	return it.fail
}

// searchBlock looks (fp, key) up in one block payload without decoding
// it: entries are sorted, so the scan stops at the first larger
// fingerprint, and key bytes are compared only on a fingerprint match.
func searchBlock(payload []byte, fp uint64, key []byte) (id int64, found bool, err error) {
	it, err := iterBlock(payload)
	if err != nil {
		return 0, false, err
	}
	for it.next() {
		if it.fp > fp {
			return 0, false, nil
		}
		if it.fp == fp && bytes.Equal(it.key(), key) {
			return it.id, true, nil
		}
	}
	return 0, false, it.err()
}

// readBlock fetches run's j-th block into *buf — one read of exactly the
// frame, its checksum verified on every fetch — and returns the payload,
// valid until *buf is reused.
func (t *spillTier) readBlock(sh *tierShard, run *tierRun, j int, buf *[]byte) ([]byte, error) {
	off, end := run.blocks[j].off, run.end
	if j+1 < len(run.blocks) {
		end = run.blocks[j+1].off
	}
	var payload []byte
	err := frame.Retry(&t.retries, func() error {
		typ, p, _, err := frame.ReadAtInto(run.f, off, int(end-off), buf)
		if err != nil {
			return err
		}
		if typ != frameRunBlock {
			return fmt.Errorf("frame type %d where block expected", typ)
		}
		payload = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	sh.blockReads++
	sh.blockBytes += end - off
	return payload, nil
}

// lookup probes shard's runs, newest first, for (fp, key).  A hit
// returns the entry's dense id.  An I/O or corruption error that
// survives the retries is returned — the caller must treat it as
// unrecoverable, never as "absent".
func (t *spillTier) lookup(shard int, fp uint64, key []byte) (int64, bool, error) {
	sh := &t.shards[shard]
	if len(sh.runs) == 0 {
		return 0, false, nil
	}
	sh.lookups++
	for i := len(sh.runs) - 1; i >= 0; i-- {
		run := sh.runs[i]
		if !bloomHas(run.bloom, fp) {
			continue
		}
		// First block whose range can hold fp; equal fingerprints may
		// straddle a block boundary, so walk on while first <= fp.
		j, hi := 0, len(run.blocks)
		for j < hi {
			if m := int(uint(j+hi) >> 1); run.blocks[m].last < fp {
				j = m + 1
			} else {
				hi = m
			}
		}
		for ; j < len(run.blocks) && run.blocks[j].first <= fp; j++ {
			var id int64
			var found bool
			payload, err := t.readBlock(sh, run, j, &sh.probe)
			if err == nil {
				id, found, err = searchBlock(payload, fp, key)
			}
			if err != nil {
				return 0, false, fmt.Errorf("explore: spill lookup in %s: %w", run.name, err)
			}
			if found {
				sh.hits++
				return id, true, nil
			}
		}
	}
	return 0, false, nil
}

// runCursor streams one run's entries in order for the compaction merge,
// holding one block at a time.
type runCursor struct {
	run  *tierRun
	next int // next block to load
	buf  []byte
	it   blockIter
	done bool
}

// advance moves c to its run's next entry (c.it.fp, id, key()), loading
// the next block when the current one is spent; done is set at the end.
func (c *runCursor) advance(t *spillTier, sh *tierShard) error {
	for !c.it.next() {
		if err := c.it.err(); err != nil {
			return err
		}
		if c.next == len(c.run.blocks) {
			c.done = true
			return nil
		}
		payload, err := t.readBlock(sh, c.run, c.next, &c.buf)
		if err != nil {
			return err
		}
		c.next++
		if c.it, err = iterBlock(payload); err != nil {
			return err
		}
	}
	return nil
}

// compact merges all of shard's runs into one.  The runs are sorted and
// their key sets disjoint (a key is written once, by the first eviction
// or cut after its admission, and is never re-admitted), so the merge
// streams — one
// block cursor per run feeding the run writer, a block of memory per
// run — and writes exactly the run a flush of the union would have.
// The superseded files are deleted only after the next durable manifest
// no longer references them.
func (t *spillTier) compact(shard int) error {
	sh := &t.shards[shard]
	if len(sh.runs) < 2 {
		return nil
	}
	var total int64
	for _, run := range sh.runs {
		total += run.count
	}
	merged, err := t.writeRun(shard, sh.gen+1, total, func(rw *runWriter) error {
		cursors := make([]runCursor, len(sh.runs))
		for i, run := range sh.runs {
			c := &cursors[i]
			c.run = run
			if err := c.advance(t, sh); err != nil {
				return fmt.Errorf("explore: compact %s: %w", run.name, err)
			}
		}
		for {
			var least *runCursor
			for i := range cursors {
				c := &cursors[i]
				if c.done {
					continue
				}
				if least == nil || c.it.fp < least.it.fp ||
					(c.it.fp == least.it.fp && bytes.Compare(c.it.key(), least.it.key()) < 0) {
					least = c
				}
			}
			if least == nil {
				return nil
			}
			if err := addRunEntry(rw, least.it.fp, least.it.id, least.it.key()); err != nil {
				return err
			}
			if err := least.advance(t, sh); err != nil {
				return fmt.Errorf("explore: compact %s: %w", least.run.name, err)
			}
		}
	})
	if err != nil {
		return err
	}
	sh.gen++
	old := sh.runs
	sh.runs = []*tierRun{merged}
	t.compactions.Add(1)
	for _, run := range old {
		run.f.Close()
		t.retire(run.name)
	}
	return nil
}

// retire schedules a superseded file for deletion: immediately when the
// run is not checkpointing, after the next durable manifest otherwise
// (a manifest must never reference a deleted file).
func (t *spillTier) retire(name string) {
	if !t.deferDelete {
		t.fs.Remove(filepath.Join(t.dir, name))
		return
	}
	t.obMu.Lock()
	t.obsolete = append(t.obsolete, name)
	t.obMu.Unlock()
}

// prune deletes every file retired before the manifest that just became
// durable.  Best-effort: a missed delete wastes disk, never correctness.
func (t *spillTier) prune() {
	t.obMu.Lock()
	dead := t.obsolete
	t.obsolete = nil
	t.obMu.Unlock()
	for _, name := range dead {
		t.fs.Remove(filepath.Join(t.dir, name))
	}
}

// stats sums the tier's end-of-run numbers over the shards; the workers
// have joined, so the owner-only counters are safe to read.
func (t *spillTier) stats() SpillStats {
	st := SpillStats{
		Flushes:     t.flushes.Load(),
		Compactions: t.compactions.Load(),
		Retries:     t.retries.Load(),
		SoftFails:   t.softFails.Load(),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		for _, run := range sh.runs {
			st.Keys += run.count
			st.Bytes += run.bytes
			st.Runs++
		}
		st.Lookups += sh.lookups
		st.LookupHits += sh.hits
		st.BlockReads += sh.blockReads
		st.BlockBytes += sh.blockBytes
	}
	return st
}

// shardKeys returns the on-disk entry count of one shard (census).
func (t *spillTier) shardKeys(shard int) int64 {
	var n int64
	for _, run := range t.shards[shard].runs {
		n += run.count
	}
	return n
}

// close releases every open run handle (end of run).
func (t *spillTier) close() {
	for i := range t.shards {
		for _, run := range t.shards[i].runs {
			if run.f != nil {
				run.f.Close()
			}
		}
	}
}

// --- frontier segments ---

// spillSegment is one on-disk slice of a worker's frontier.
type spillSegment struct {
	name  string
	count int64
	// consumed: the items are back in RAM (or were never evicted — a
	// checkpoint snapshot); the file stays until the next manifest.
	consumed bool
	// snap marks the current checkpoint's frontier snapshot: consumed
	// from birth (its items never left RAM) but referenced by the
	// manifest being written.
	snap bool
}

// spillQueue is one worker's frontier overflow; owner-access only (the
// engine serializes checkpoint/resume access).
type spillQueue struct {
	fs     frame.FS
	dir    string
	worker int
	seq    int64
	segs   []*spillSegment

	retries *atomic.Int64
	spilled atomic.Int64
	loaded  atomic.Int64
}

func newSpillQueue(fs frame.FS, dir string, worker int, retries *atomic.Int64) *spillQueue {
	return &spillQueue{fs: fs, dir: dir, worker: worker, retries: retries}
}

func segName(worker int, seq int64) string {
	return fmt.Sprintf("f%03d-%06d.seg", worker, seq)
}

// spill durably writes items (each already encoded: id uvarint followed
// by the caller's payload) as one segment.  On error nothing is
// registered and the caller keeps the items in RAM.
func (q *spillQueue) spill(items [][]byte, snapshot bool) error {
	seg := &spillSegment{
		name:     segName(q.worker, q.seq+1),
		count:    int64(len(items)),
		consumed: snapshot,
		snap:     snapshot,
	}
	hdr := binary.AppendUvarint(nil, spillVersion)
	hdr = binary.AppendUvarint(hdr, uint64(q.worker))
	hdr = binary.AppendUvarint(hdr, uint64(len(items)))
	err := frame.Retry(q.retries, func() error {
		return frame.WriteFileAtomic(q.fs, filepath.Join(q.dir, seg.name), func(w io.Writer) error {
			if err := frame.Write(w, frameSegHeader, hdr); err != nil {
				return err
			}
			for _, it := range items {
				if err := frame.Write(w, frameSegItem, it); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("explore: spill segment %s: %w", seg.name, err)
	}
	q.seq++
	q.segs = append(q.segs, seg)
	if !snapshot {
		q.spilled.Add(seg.count)
	}
	return nil
}

// loadOldest reads the oldest unconsumed segment back, verifying every
// frame and the item count.  Returns (nil, nil) when nothing is spilled.
// The file is deleted immediately when not checkpointing, and marked for
// the next manifest cycle otherwise.
func (q *spillQueue) loadOldest(deferDelete bool) ([][]byte, error) {
	var seg *spillSegment
	for _, s := range q.segs {
		if !s.consumed {
			seg = s
			break
		}
	}
	if seg == nil {
		return nil, nil
	}
	path := filepath.Join(q.dir, seg.name)
	var items [][]byte
	err := frame.Retry(q.retries, func() error {
		f, err := q.fs.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		typ, hdr, err := frame.Read(f)
		if err != nil || typ != frameSegHeader {
			return fmt.Errorf("bad segment header: %w", err)
		}
		r := frame.NewReader(hdr)
		if v := r.Uvarint("version"); v != spillVersion {
			return fmt.Errorf("segment version %d, want %d", v, spillVersion)
		}
		r.Uvarint("worker")
		count := int64(r.Uvarint("count"))
		if r.Err() != nil || count != seg.count {
			return fmt.Errorf("segment header count %d, want %d", count, seg.count)
		}
		items = items[:0]
		for int64(len(items)) < count {
			typ, payload, err := frame.Read(f)
			if err != nil {
				return fmt.Errorf("segment item %d: %w", len(items), err)
			}
			if typ != frameSegItem {
				return fmt.Errorf("frame type %d where item expected", typ)
			}
			items = append(items, payload)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("explore: reload segment %s: %w", seg.name, err)
	}
	seg.consumed = true
	q.loaded.Add(seg.count)
	if !deferDelete {
		q.fs.Remove(path)
		q.drop(seg)
	}
	return items, nil
}

// pending reports the number of items resident in unconsumed segments.
func (q *spillQueue) pending() int64 {
	var n int64
	for _, s := range q.segs {
		if !s.consumed {
			n += s.count
		}
	}
	return n
}

// drop forgets a segment record.
func (q *spillQueue) drop(seg *spillSegment) {
	for i, s := range q.segs {
		if s == seg {
			q.segs = append(q.segs[:i], q.segs[i+1:]...)
			return
		}
	}
}

// manifestSegs returns the segments the next manifest must reference:
// everything whose items are not safely re-derivable — unconsumed
// segments plus the current checkpoint snapshot.
func (q *spillQueue) manifestSegs() []*spillSegment {
	var out []*spillSegment
	for _, s := range q.segs {
		if !s.consumed || s.snap {
			out = append(out, s)
		}
	}
	return out
}

// pruneAfterManifest deletes segments the just-written manifest no
// longer references (consumed, and not this cut's snapshot).
func (q *spillQueue) pruneAfterManifest() {
	kept := q.segs[:0]
	for _, s := range q.segs {
		if s.consumed && !s.snap {
			q.fs.Remove(filepath.Join(q.dir, s.name))
			continue
		}
		kept = append(kept, s)
	}
	q.segs = kept
}

// clearSnapshots demotes the previous checkpoint's snapshot segments:
// the new cut supersedes them, so after the next manifest they are
// pruned like any other consumed segment.
func (q *spillQueue) clearSnapshots() {
	for _, s := range q.segs {
		s.snap = false
	}
}

// removeAll best-effort deletes every segment (clean-finish cleanup).
func (q *spillQueue) removeAll() {
	for _, s := range q.segs {
		q.fs.Remove(filepath.Join(q.dir, s.name))
	}
	q.segs = nil
}
