package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"randsync/internal/frame"
)

// White-box tests of the cold tier: the in-place block scan against a
// decode-everything reference, the probe's allocation and read budget,
// and the streamed compaction against a flush of the union.

// RefEntry and DecodeRunBlockRef are the reference the in-place scan is
// differentially tested against: the whole block decoded into entries
// with owned keys, the way lookups worked before they searched the block
// where it lies.  Exported so the external spill tests can read run
// files with it too.
type RefEntry struct {
	FP  uint64
	ID  int64
	Key string
}

func DecodeRunBlockRef(payload []byte) ([]RefEntry, error) {
	r := frame.NewReader(payload)
	n := r.Uvarint("block count")
	if n == 0 || n > maxRunBlockEntries {
		return nil, fmt.Errorf("block count %d out of range", n)
	}
	var entries []RefEntry
	for i := uint64(0); i < n; i++ {
		var e RefEntry
		e.FP = r.Fixed64("entry fp")
		e.ID = int64(r.Uvarint("entry id"))
		e.Key = string(r.Bytes("entry key"))
		entries = append(entries, e)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// encodeBlockRef lays entries out as one block payload.
func encodeBlockRef(entries []RefEntry) []byte {
	p := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		p = binary.BigEndian.AppendUint64(p, e.FP)
		p = binary.AppendUvarint(p, uint64(e.ID))
		p = binary.AppendUvarint(p, uint64(len(e.Key)))
		p = append(p, e.Key...)
	}
	return p
}

func sortRef(entries []RefEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].FP != entries[j].FP {
			return entries[i].FP < entries[j].FP
		}
		return entries[i].Key < entries[j].Key
	})
}

// FuzzSearchBlock: data is cut into a sorted entry set (tiny fingerprint
// space, so collisions are the norm) and laid out twice — as one well-
// formed block, and as a flushed run whose 32-entry blocks a fingerprint
// may straddle — then probed for every entry, for neighbours of every
// entry, and for (qfp, qkey); the in-place scan and the lookup built on
// it must agree with the reference.  The same bytes are then presented
// raw, truncated and with one bit flipped — as a block payload whose
// checksum happened to pass — where the scan may fail or answer, but
// must not panic and must not report a key the reference decoder does
// not find in a block it accepts.
func FuzzSearchBlock(f *testing.F) {
	// Fingerprint-collision neighbours: three keys under one fingerprint.
	f.Add([]byte{7, 1, 'a', 7, 1, 'b', 7, 2, 'a', 'b', 9, 0}, uint64(7), []byte("ab"))
	// A probe between two fingerprints, and past the last one.
	f.Add([]byte{3, 1, 'x', 200, 1, 'y'}, uint64(100), []byte("x"))
	f.Add([]byte{3, 1, 'x', 200, 1, 'y'}, uint64(255), []byte("y"))
	// A well-formed block as raw bytes, so the mutation half starts from
	// valid structure.
	f.Add(encodeBlockRef([]RefEntry{{1, 10, "k1"}, {1, 11, "k2"}, {5, 12, ""}}), uint64(1), []byte("k2"))
	f.Add([]byte{}, uint64(0), []byte{})
	// Forty keys under one fingerprint between two others: the
	// fingerprint straddles the run's first two blocks.
	straddle := []byte{4, 1, 'a'}
	for i := 0; i < 40; i++ {
		straddle = append(straddle, 5, 1, byte(i))
	}
	f.Add(append(straddle, 6, 1, 'z'), uint64(5), []byte{31})

	f.Fuzz(func(t *testing.T, data []byte, qfp uint64, qkey []byte) {
		// Half one: data as a recipe for a valid block.
		seen := make(map[string]bool)
		var entries []RefEntry
		for d := data; len(d) >= 2 && len(entries) < maxRunBlockEntries; {
			fp, klen := uint64(d[0]), int(d[1])%5
			d = d[2:]
			if klen > len(d) {
				klen = len(d)
			}
			key := string(d[:klen])
			d = d[klen:]
			if id := fmt.Sprint(fp, key); !seen[id] {
				seen[id] = true
				entries = append(entries, RefEntry{FP: fp, ID: int64(len(entries)), Key: key})
			}
		}
		if len(entries) > 0 {
			sortRef(entries)
			payload := encodeBlockRef(entries)
			tier := newSpillTier(newMemFS(), "d", 1, false)
			tier.blockEntries = 32
			flushed := make([]spillEntry, len(entries))
			for i, e := range entries {
				flushed[i] = spillEntry{fp: e.FP, id: e.ID, key: e.Key}
			}
			if err := tier.flush(0, flushed, 0); err != nil {
				t.Fatal(err)
			}
			probe := func(fp uint64, key string) {
				want, wantOK := int64(0), false
				for _, e := range entries {
					if e.FP == fp && e.Key == key {
						want, wantOK = e.ID, true
					}
				}
				id, ok, err := searchBlock(payload, fp, []byte(key))
				if err != nil || ok != wantOK || id != want {
					t.Fatalf("searchBlock(%d, %q) = %d, %v, %v; reference says %d, %v", fp, key, id, ok, err, want, wantOK)
				}
				id, ok, err = tier.lookup(0, fp, []byte(key))
				if err != nil || ok != wantOK || id != want {
					t.Fatalf("lookup(%d, %q) = %d, %v, %v; reference says %d, %v", fp, key, id, ok, err, want, wantOK)
				}
			}
			for _, e := range entries {
				probe(e.FP, e.Key)
				probe(e.FP, e.Key+"\x00")
				probe(e.FP+1, e.Key)
				probe(e.FP-1, e.Key)
			}
			probe(qfp, string(qkey))
			probe(qfp%256, string(qkey))
		}

		// Half two: data as an arbitrary, truncated or bit-flipped payload.
		hostile := [][]byte{data, data[:len(data)/2]}
		if len(data) > 0 {
			flipped := append([]byte(nil), data...)
			flipped[int(qfp%uint64(len(data)))] ^= 1 << ((qfp >> 8) % 8)
			hostile = append(hostile, flipped)
		}
		for _, p := range hostile {
			ref, refErr := DecodeRunBlockRef(p)
			for _, q := range [][]byte{qkey, nil} {
				id, ok, err := searchBlock(p, qfp, q)
				if !ok {
					continue
				}
				if err != nil {
					t.Fatalf("searchBlock reported both a hit and an error: %v", err)
				}
				if refErr != nil {
					continue // a hit in the intact prefix of a block the scan never saw the bad end of
				}
				found := false
				for _, e := range ref {
					found = found || (e.FP == qfp && e.Key == string(q) && e.ID == id)
				}
				if !found {
					t.Fatalf("searchBlock(%d, %q) hit id %d in a block that does not hold it", qfp, q, id)
				}
			}
			// The full walk must fail exactly when the reference does.
			it, err := iterBlock(p)
			n := 0
			if err == nil {
				for it.next() {
					n++
				}
				err = it.err()
			}
			if (err == nil) != (refErr == nil) || (err == nil && n != len(ref)) {
				t.Fatalf("in-place walk: %d entries, err %v; reference: %d entries, err %v", n, err, len(ref), refErr)
			}
		}
	})
}

// memFS is a flat in-memory frame.FS: enough for a tier (create, reopen,
// rename, remove, list), with no syscalls to blur an allocation count.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

type memData struct{ b []byte }

type memHandle struct {
	d   *memData
	off int64
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

func (m *memFS) Create(name string) (frame.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := &memData{}
	m.files[name] = d
	return &memHandle{d: d}, nil
}

func (m *memFS) Open(name string) (frame.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		// Directories included: frame.SyncDir is best-effort.
		return nil, &iofs.PathError{Op: "open", Path: name, Err: iofs.ErrNotExist}
	}
	return &memHandle{d: d}, nil
}

func (m *memFS) Rename(o, n string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[o]
	if !ok {
		return &iofs.PathError{Op: "rename", Path: o, Err: iofs.ErrNotExist}
	}
	delete(m.files, o)
	m.files[n] = d
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadDir(string) ([]iofs.DirEntry, error) { return nil, nil }
func (m *memFS) MkdirAll(string) error                   { return nil }

func (m *memFS) bytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.files[name].b
}

func (h *memHandle) Read(p []byte) (int, error) {
	n, err := h.ReadAt(p, h.off)
	h.off += int64(n)
	if n > 0 {
		err = nil
	}
	return n, err
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(h.d.b)) {
		return 0, io.EOF
	}
	n := copy(p, h.d.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.d.b = append(h.d.b, p...)
	return len(p), nil
}

func (*memHandle) Sync() error  { return nil }
func (*memHandle) Close() error { return nil }

// tierEntries makes n entries for shard 0 of a one-shard tier: ids from
// base, 12-byte keys, fingerprints spread by a multiplicative hash but
// forced to collide in pairs so the collision path is always populated.
func tierEntries(base, n int) []spillEntry {
	entries := make([]spillEntry, n)
	for i := range entries {
		id := base + i
		entries[i] = spillEntry{
			fp:  uint64(id/2) * 0x9e3779b97f4a7c15,
			id:  int64(id),
			key: fmt.Sprintf("key-%08d", id),
		}
	}
	return entries
}

// TestSpillProbeBudget pins what a steady-state probe may cost: no
// allocation — hit, bloom-negative miss or bloom-false-positive miss —
// and at most one block read per run whose bloom filter admits the
// fingerprint.
func TestSpillProbeBudget(t *testing.T) {
	tier := newSpillTier(newMemFS(), "d", 1, false)
	defer tier.close()
	const perRun, nruns = 1000, 4 // maxRunsPerShard runs: no compaction
	for r := 0; r < nruns; r++ {
		if err := tier.flush(0, tierEntries(r*perRun, perRun), 0); err != nil {
			t.Fatal(err)
		}
	}
	sh := &tier.shards[0]
	if len(sh.runs) != nruns {
		t.Fatalf("%d runs, want %d", len(sh.runs), nruns)
	}
	admitting := func(fp uint64) int64 {
		var n int64
		for _, run := range sh.runs {
			if bloomHas(run.bloom, fp) {
				n++
			}
		}
		return n
	}

	all := tierEntries(0, perRun*nruns)
	// A fingerprint no run holds but some bloom filter admits, and one
	// every filter rejects.
	var falsePos, negative uint64
	for fp := uint64(1); falsePos == 0 || negative == 0; fp += 0x632be59bd9b4e019 {
		switch n := admitting(fp); {
		case n > 0 && falsePos == 0:
			held := false
			for _, e := range all {
				held = held || e.fp == fp
			}
			if !held {
				falsePos = fp
			}
		case n == 0 && negative == 0:
			negative = fp
		}
	}

	probes := []struct {
		name string
		fp   uint64
		key  []byte
		want int64 // id, or -1 for absent
	}{
		{"hit-oldest-run", all[10].fp, []byte(all[10].key), all[10].id},
		{"hit-newest-run", all[len(all)-1].fp, []byte(all[len(all)-1].key), all[len(all)-1].id},
		{"hit-collision-neighbour", all[11].fp, []byte(all[11].key), all[11].id},
		{"miss-fingerprint-held-key-not", all[10].fp, []byte("key-absent"), -1},
		{"miss-bloom-false-positive", falsePos, []byte("k"), -1},
		{"miss-bloom-negative", negative, []byte("k"), -1},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			check := func() {
				id, ok, err := tier.lookup(0, p.fp, p.key)
				if err != nil || ok != (p.want >= 0) || (ok && id != p.want) {
					t.Fatalf("lookup = %d, %v, %v; want id %d", id, ok, err, p.want)
				}
			}
			check() // warm the probe buffer
			before := sh.blockReads
			check()
			if reads, max := sh.blockReads-before, admitting(p.fp); reads > max {
				t.Fatalf("probe read %d blocks; %d runs admit the fingerprint", reads, max)
			}
			if p.name == "miss-bloom-negative" && sh.blockReads != before {
				t.Fatal("a bloom-negative probe read a block")
			}
			if allocs := testing.AllocsPerRun(200, check); allocs != 0 {
				t.Fatalf("probe allocates %v times, want 0", allocs)
			}
		})
	}
	st := tier.stats()
	if st.Lookups == 0 || st.LookupHits == 0 || st.BlockReads == 0 || st.BlockBytes < st.BlockReads {
		t.Fatalf("probe counters not summed into stats: %+v", st)
	}
}

// TestCompactionMatchesFlushOfUnion: the streamed merge of the runs of
// five flushes must write byte for byte the file, and build field for
// field the index, that one flush of all the entries would have.
func TestCompactionMatchesFlushOfUnion(t *testing.T) {
	for _, per := range []int64{runBlockEntries, 32} {
		t.Run(fmt.Sprintf("%d-entry-blocks", per), func(t *testing.T) { testCompactionMatchesFlushOfUnion(t, per) })
	}
}

func testCompactionMatchesFlushOfUnion(t *testing.T, per int64) {
	const perRun, nruns = 777, maxRunsPerShard + 1 // the last flush compacts
	// Deal the entries round-robin so every run spans the whole
	// fingerprint range and the merge really interleaves.
	all := tierEntries(0, perRun*nruns)
	fsA := newMemFS()
	a := newSpillTier(fsA, "d", 1, false)
	a.blockEntries = per
	defer a.close()
	for r := 0; r < nruns; r++ {
		var part []spillEntry
		for i := r; i < len(all); i += nruns {
			part = append(part, all[i])
		}
		if err := a.flush(0, part, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.compactions.Load(); got != 1 || len(a.shards[0].runs) != 1 {
		t.Fatalf("%d compactions, %d runs; want 1, 1", got, len(a.shards[0].runs))
	}

	fsB := newMemFS()
	b := newSpillTier(fsB, "d", 1, false)
	b.blockEntries = per
	defer b.close()
	b.shards[0].gen = nruns // so the union lands in the same generation
	if err := b.flush(0, tierEntries(0, perRun*nruns), 0); err != nil {
		t.Fatal(err)
	}

	ra, rb := a.shards[0].runs[0], b.shards[0].runs[0]
	if ra.name != rb.name {
		t.Fatalf("merged run is %s, flushed union is %s", ra.name, rb.name)
	}
	path := filepath.Join("d", ra.name)
	if !bytes.Equal(fsA.bytes(path), fsB.bytes(path)) {
		t.Fatalf("merged run file (%d bytes) differs from the flushed union (%d bytes)", len(fsA.bytes(path)), len(fsB.bytes(path)))
	}
	if ra.count != rb.count || ra.bytes != rb.bytes || ra.end != rb.end {
		t.Fatalf("merged count/bytes/end %d/%d/%d, union %d/%d/%d", ra.count, ra.bytes, ra.end, rb.count, rb.bytes, rb.end)
	}
	if !reflect.DeepEqual(ra.blocks, rb.blocks) || !reflect.DeepEqual(ra.bloom, rb.bloom) {
		t.Fatal("merged block index or bloom filter differs from the flushed union's")
	}
	if want := (perRun*nruns + int(per) - 1) / int(per); len(ra.blocks) != want {
		t.Fatalf("%d blocks, want %d", len(ra.blocks), want)
	}
	// The superseded runs are gone, and every entry is still found.
	if n := len(fsA.files); n != 1 {
		t.Fatalf("%d files left after compaction, want 1", n)
	}
	for _, e := range all {
		if id, ok, err := a.lookup(0, e.fp, []byte(e.key)); err != nil || !ok || id != e.id {
			t.Fatalf("after compaction lookup(%q) = %d, %v, %v; want %d", e.key, id, ok, err, e.id)
		}
	}
	// Reopening the merged file rebuilds the same index (resume path).
	re, err := a.openRun(0, ra.name, ra.count)
	if err != nil {
		t.Fatal(err)
	}
	if re.bytes != ra.bytes || re.end != ra.end || !reflect.DeepEqual(re.blocks, ra.blocks) || !reflect.DeepEqual(re.bloom, ra.bloom) {
		t.Fatal("reopened run's index differs from the one built while writing")
	}
}

// TestSpillCheckpointPersistsOnce pins checkd's shape — checkpoints and
// no hot budget — at the tier.  No RAM miss consults the disk, because a
// shard that never evicted holds every key it admitted.  And the runs the
// last manifest names hold each key admitted before that cut exactly
// once: their counts sum to the cut's admission count, and their ids are
// exactly 0 … that count − 1.
func TestSpillCheckpointPersistsOnce(t *testing.T) {
	const n = 4000
	key := func(s uint64) []byte { return binary.BigEndian.AppendUint64(nil, s) }
	roots := []ShardSeed[uint64]{{FP: frame.Fingerprint(key(0)), Key: key(0), Val: 0}}
	expand := func(ctx *ShardCtx[uint64], id int64, s uint64) {
		for _, nx := range [2]uint64{(s + 1) % n, (3*s + 7) % n} {
			k := key(nx)
			ctx.Emit(frame.Fingerprint(k), k, id, func() uint64 { return nx })
		}
	}
	ref := RunSharded(2, ShardedOptions[uint64]{}, roots, expand)

	dir := t.TempDir()
	cfg := &SpillConfig[uint64]{
		Dir:             dir,
		CheckpointEvery: 256,
		KeepFiles:       true,
		Header:          []byte("spill_tier_test persist-once v1"),
		Encode:          func(v uint64, buf []byte) []byte { return binary.BigEndian.AppendUint64(buf, v) },
		Decode:          func(p []byte) (uint64, error) { return binary.BigEndian.Uint64(p), nil },
	}
	res := RunSharded(2, ShardedOptions[uint64]{MaxItems: 2 * ref.Stats.Admitted, Spill: cfg}, roots, expand)
	st := res.Stats
	if res.Err != nil || st.Incomplete || st.Admitted != ref.Stats.Admitted {
		t.Fatalf("err=%v incomplete=%v admitted %d, want %d", res.Err, st.Incomplete, st.Admitted, ref.Stats.Admitted)
	}
	if st.Spill.Checkpoints < 2 {
		t.Fatalf("%d checkpoints; the drill needs a cut after a cut", st.Spill.Checkpoints)
	}
	if st.Spill.Lookups != 0 {
		t.Fatalf("%d disk-tier lookups in a run that never evicted", st.Spill.Lookups)
	}

	read := func(name string) (byte, []byte, *os.File) {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		typ, payload, err := frame.Read(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return typ, payload, f
	}
	typ, payload, mf := read(manifestName)
	mf.Close()
	if typ != frameManifest {
		t.Fatalf("manifest frame type %d", typ)
	}
	r := frame.NewReader(payload)
	r.Uvarint("version")
	r.Uvarint("job hash")
	workers := r.Uvarint("workers")
	cut := int64(r.Uvarint("next id"))
	r.Uvarint("processed")
	r.Uvarint("dedup")
	r.Uvarint("checkpoints")
	ids := make(map[int64]bool)
	var sum int64
	for s := uint64(0); s < workers; s++ {
		r.Uvarint("shard gen")
		for i, nruns := 0, r.Count("shard runs"); i < nruns; i++ {
			name := string(r.Bytes("run name"))
			count := int64(r.Uvarint("run count"))
			sum += count
			_, _, f := read(name) // the header
			var held int64
			for {
				typ, payload, err := frame.Read(f)
				if err == io.EOF {
					break
				}
				if err != nil || typ != frameRunBlock {
					t.Fatalf("%s: block type %d err %v", name, typ, err)
				}
				blk, err := DecodeRunBlockRef(payload)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, e := range blk {
					if ids[e.ID] {
						t.Fatalf("id %d persisted twice (again in %s)", e.ID, name)
					}
					ids[e.ID] = true
				}
				held += int64(len(blk))
			}
			f.Close()
			if held != count {
				t.Fatalf("%s holds %d entries, manifest says %d", name, held, count)
			}
		}
	}
	r.Rest() // the segments, edges and caller state: not this drill's
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if sum != cut || int64(len(ids)) != cut {
		t.Fatalf("manifest runs hold %d entries (%d distinct ids), cut admitted %d", sum, len(ids), cut)
	}
	for id := int64(0); id < cut; id++ {
		if !ids[id] {
			t.Fatalf("id %d admitted before the cut is in no run", id)
		}
	}
}
