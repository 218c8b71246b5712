package explore_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"randsync/internal/explore"
	"randsync/internal/fault"
	"randsync/internal/frame"
)

// The spill tests drive RunSharded over a synthetic deterministic graph:
// states 0..n-1, successors (s+1) mod n and (3s+7) mod n.  The +1 edge
// makes every state reachable from 0 (and the exploration deep, so the
// frontier genuinely outgrows its hot budget); keys are the 8-byte
// big-endian state, so admission and edge counts are exact references
// for every differential below.

type spillGraph struct {
	n int
}

func (g spillGraph) key(s uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], s)
	return b[:]
}

func (g spillGraph) succs(s uint64) [2]uint64 {
	n := uint64(g.n)
	return [2]uint64{(s + 1) % n, (3*s + 7) % n}
}

func (g spillGraph) roots() []explore.ShardSeed[uint64] {
	k := g.key(0)
	return []explore.ShardSeed[uint64]{{FP: frame.Fingerprint(k), Key: k, Val: 0}}
}

func (g spillGraph) expand(ctx *explore.ShardCtx[uint64], id int64, s uint64) {
	for _, nx := range g.succs(s) {
		k := g.key(nx)
		v := nx
		ctx.Emit(frame.Fingerprint(k), k, id, func() uint64 { return v })
	}
}

// run explores the graph with the given options and returns the result.
func (g spillGraph) run(workers int, opts explore.ShardedOptions[uint64]) explore.ShardedResult {
	return explore.RunSharded(workers, opts, g.roots(), g.expand)
}

func spillCfg(dir string, fs frame.FS, ckptEvery int64) *explore.SpillConfig[uint64] {
	return &explore.SpillConfig[uint64]{
		Dir:             dir,
		FS:              fs,
		HotBytes:        2 << 10, // a few hundred keys in RAM: forces flushes and compactions
		HotFrontier:     64,
		CheckpointEvery: ckptEvery,
		Header:          []byte("spill_test graph v1"),
		Encode: func(v uint64, buf []byte) []byte {
			return binary.BigEndian.AppendUint64(buf, v)
		},
		Decode: func(p []byte) (uint64, error) {
			if len(p) != 8 {
				return 0, fmt.Errorf("payload is %d bytes, want 8", len(p))
			}
			return binary.BigEndian.Uint64(p), nil
		},
	}
}

// capped bounds a spill run's admissions at twice the reference count.
// A tier that re-admits visited keys then stops early with a count
// mismatch, instead of exploring (and writing to disk) without end.
func capped(ref explore.ShardedResult, cfg *explore.SpillConfig[uint64]) explore.ShardedOptions[uint64] {
	return explore.ShardedOptions[uint64]{MaxItems: 2 * ref.Stats.Admitted, Spill: cfg}
}

// TestSpillDifferential: a run whose visited set and frontier live
// mostly on disk must admit exactly the same state set as the all-RAM
// run, and must actually have exercised the tier.
func TestSpillDifferential(t *testing.T) {
	// The affine successor maps close over a subset of the n states; the
	// all-RAM run is the exact reference for what is reachable.
	g := spillGraph{n: 5000}
	ref := g.run(1, explore.ShardedOptions[uint64]{})
	if ref.Stats.Incomplete || ref.Stats.Admitted < 500 {
		t.Fatalf("reference run admitted %d, incomplete=%v", ref.Stats.Admitted, ref.Stats.Incomplete)
	}

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			seen := make(map[uint64]int)
			cfg := spillCfg(t.TempDir(), nil, 0)
			res := explore.RunSharded(workers, capped(ref, cfg), g.roots(),
				func(ctx *explore.ShardCtx[uint64], id int64, s uint64) {
					mu.Lock()
					seen[s]++
					mu.Unlock()
					g.expand(ctx, id, s)
				})
			if res.Err != nil {
				t.Fatalf("spill run failed: %v", res.Err)
			}
			st := res.Stats
			if st.Admitted != ref.Stats.Admitted || st.Processed != ref.Stats.Processed {
				t.Fatalf("admitted/processed %d/%d, want %d/%d",
					st.Admitted, st.Processed, ref.Stats.Admitted, ref.Stats.Processed)
			}
			if len(res.Edges) != len(ref.Edges) {
				t.Fatalf("%d edges, want %d", len(res.Edges), len(ref.Edges))
			}
			if st.Census.Keys != ref.Stats.Admitted {
				t.Fatalf("census keys %d, want %d", st.Census.Keys, ref.Stats.Admitted)
			}
			mu.Lock()
			defer mu.Unlock()
			if int64(len(seen)) != ref.Stats.Admitted {
				t.Fatalf("processed %d distinct states, want %d", len(seen), ref.Stats.Admitted)
			}
			for s, c := range seen {
				if c != 1 {
					t.Fatalf("state %d processed %d times", s, c)
				}
			}
			if st.Spill.Flushes == 0 || st.Spill.Lookups == 0 {
				t.Fatalf("tier never engaged: %+v", st.Spill)
			}
			if st.Spill.FrontierSpilled == 0 || st.Spill.FrontierSpilled != st.Spill.FrontierLoaded {
				t.Fatalf("frontier spill imbalance: spilled %d loaded %d",
					st.Spill.FrontierSpilled, st.Spill.FrontierLoaded)
			}
		})
	}
}

// TestSpillCheckpointCleanFinish: a completed checkpointing run must
// leave no manifest behind (a later resume would otherwise resurrect
// finished work).
func TestSpillCheckpointCleanFinish(t *testing.T) {
	g := spillGraph{n: 2000}
	dir := t.TempDir()
	res := g.run(2, explore.ShardedOptions[uint64]{Spill: spillCfg(dir, nil, 256)})
	if res.Err != nil || res.Stats.Incomplete {
		t.Fatalf("run failed: err=%v incomplete=%v", res.Err, res.Stats.Incomplete)
	}
	if res.Stats.Spill.Checkpoints == 0 {
		t.Fatal("no checkpoint was written")
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !os.IsNotExist(err) {
		t.Fatalf("manifest survived a clean finish (stat err %v)", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		t.Errorf("leftover spill file %s", ent.Name())
	}
}

// TestSpillKillResume sweeps a disk-kill across the whole run — landing
// mid-flush, mid-compaction and mid-manifest — and requires that a
// resume from the surviving state completes with exactly the reference
// state count.  The kill epoch must report an honest error, never a
// wrong verdict.  The hotBytes=0 rows are checkd's shape: no hot budget,
// so only checkpoint cuts write runs and RAM keeps every key.
func TestSpillKillResume(t *testing.T) {
	g := spillGraph{n: 4000}
	ref := g.run(1, explore.ShardedOptions[uint64]{})
	testSpillKillResume(t, g, ref, 2<<10)
	t.Run("hotBytes=0", func(t *testing.T) { testSpillKillResume(t, g, ref, 0) })
}

func testSpillKillResume(t *testing.T, g spillGraph, ref explore.ShardedResult, hot int64) {
	cfg := func(dir string, fs frame.FS) *explore.SpillConfig[uint64] {
		c := spillCfg(dir, fs, 256)
		c.HotBytes = hot
		return c
	}
	// Probe: count the disk operations of an undisturbed spill run.
	probe := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	res := g.run(2, capped(ref, cfg(t.TempDir(), probe)))
	if res.Err != nil {
		t.Fatalf("probe run failed: %v", res.Err)
	}
	total := probe.Ops()
	if total < 40 {
		t.Fatalf("probe run made only %d disk ops", total)
	}

	// The probe's op count varies with worker scheduling, so the subtests
	// are named by their place in the run, not by the op they kill at.
	for _, k := range []struct {
		name string
		frac int64
	}{{"1", 1}, {"eighth", 8}, {"quarter", 4}, {"half", 2}} {
		killAt := total / k.frac
		if k.frac == 1 {
			killAt = 1
		}
		t.Run("killAt="+k.name, func(t *testing.T) {
			t.Logf("killing at disk op %d of %d", killAt, total)
			dir := t.TempDir()
			chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
			chaos.KillAtOp(killAt)
			res := g.run(2, capped(ref, cfg(dir, chaos)))
			if res.Err == nil && res.Stats.Admitted != ref.Stats.Admitted {
				t.Fatalf("killed run reported no error but admitted %d (ref %d)",
					res.Stats.Admitted, ref.Stats.Admitted)
			}
			if res.Err != nil && !res.Stats.Incomplete {
				t.Fatal("failed run not marked incomplete")
			}

			c := cfg(dir, nil)
			c.Resume = true
			res2 := g.run(2, capped(ref, c))
			if res2.Err != nil {
				t.Fatalf("resume failed: %v", res2.Err)
			}
			st := res2.Stats
			if st.Incomplete || st.Admitted != ref.Stats.Admitted || st.Processed != ref.Stats.Admitted {
				t.Fatalf("resume admitted/processed %d/%d incomplete=%v, want %d complete",
					st.Admitted, st.Processed, st.Incomplete, ref.Stats.Admitted)
			}
			if len(res2.Edges) != len(ref.Edges) {
				t.Fatalf("resume has %d edges, want %d", len(res2.Edges), len(ref.Edges))
			}
		})
	}
}

// TestSpillCensusRetainedHotSet: with no hot budget a checkpoint persists
// keys without dropping them from RAM, so a key lives in RAM and in a
// run at once.  The census must count it once: keys, the stripe
// envelope and collisions alike.
func TestSpillCensusRetainedHotSet(t *testing.T) {
	g := spillGraph{n: 4000}
	ref := g.run(2, explore.ShardedOptions[uint64]{})
	cfg := spillCfg(t.TempDir(), nil, 64)
	cfg.HotBytes = 0
	res := g.run(2, capped(ref, cfg))
	st := res.Stats
	if res.Err != nil || st.Incomplete || st.Admitted != ref.Stats.Admitted {
		t.Fatalf("err=%v incomplete=%v admitted %d, want %d", res.Err, st.Incomplete, st.Admitted, ref.Stats.Admitted)
	}
	if st.Spill.Checkpoints == 0 || st.Spill.Keys == 0 || st.Spill.Flushes == 0 {
		t.Fatalf("no cut persisted a key: %+v", st.Spill)
	}
	if st.Census.Keys != st.Admitted || st.Census != ref.Stats.Census {
		t.Fatalf("census %+v, want the all-RAM run's %+v (admitted %d)", st.Census, ref.Stats.Census, st.Admitted)
	}

	t.Run("collisions", func(t *testing.T) {
		// Every key claims one fingerprint, so all but the root live in the
		// collision overflow; a cut after each admission persists them
		// while RAM keeps them.
		keys := []string{"alpha", "beta", "gamma", "delta"}
		const fp = uint64(42)
		cfg := &explore.SpillConfig[string]{
			Dir:             t.TempDir(),
			CheckpointEvery: 1,
			Header:          []byte("spill_test collisions v1"),
			Encode:          func(v string, buf []byte) []byte { return append(buf, v...) },
			Decode:          func(p []byte) (string, error) { return string(p), nil },
		}
		want := int64(1 + len(keys))
		res := explore.RunSharded(3, explore.ShardedOptions[string]{MaxItems: 2 * want, Spill: cfg},
			[]explore.ShardSeed[string]{{FP: fp, Key: []byte("root"), Val: "root"}},
			func(ctx *explore.ShardCtx[string], id int64, v string) {
				if v != "root" {
					return
				}
				for _, k := range keys {
					kk := k
					ctx.Emit(fp, []byte(k), id, func() string { return kk })
				}
			})
		st := res.Stats
		if res.Err != nil || st.Admitted != want {
			t.Fatalf("err=%v admitted %d, want %d", res.Err, st.Admitted, want)
		}
		if st.Spill.Keys != want {
			t.Fatalf("%d keys persisted, want all %d (the drill needs them in RAM and in runs)", st.Spill.Keys, want)
		}
		c := st.Census
		if c.Keys != want || c.Collisions != int64(len(keys)) || c.MaxStripeKeys != want || c.MinStripeKeys != 0 {
			t.Fatalf("census %+v, want %d keys, %d collisions, stripes 0..%d", c, want, len(keys), want)
		}
	})
}

// TestSpillFaultSoak: seeded disk chaos across many seeds.  Hard
// contract: a run that claims completion must have the exact reference
// count; anything else must be the honest incomplete verdict with an
// error.  No seed may produce a wrong count or a panic.
func TestSpillFaultSoak(t *testing.T) {
	g := spillGraph{n: 2500}
	ref := g.run(1, explore.ShardedOptions[uint64]{})

	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	var completed, degraded int
	for seed := 0; seed < seeds; seed++ {
		plan := fault.DiskPlan{
			Seed:        uint64(seed)*0x9e3779b9 + 1,
			WriteErr:    3,
			ShortWrite:  3,
			SyncErr:     3,
			OpenErr:     2,
			ReadErr:     3,
			ReadCorrupt: 3,
		}
		chaos := fault.NewDiskChaos(frame.OS{}, plan)
		res := g.run(2, capped(ref, spillCfg(t.TempDir(), chaos, 200)))
		switch {
		case res.Err == nil && !res.Stats.Incomplete:
			if res.Stats.Admitted != ref.Stats.Admitted {
				t.Fatalf("seed %d: complete verdict with %d admitted, ref %d",
					seed, res.Stats.Admitted, ref.Stats.Admitted)
			}
			completed++
		case res.Stats.Incomplete:
			if res.Err == nil {
				t.Fatalf("seed %d: incomplete without an error", seed)
			}
			degraded++
		default:
			t.Fatalf("seed %d: err=%v but not incomplete", seed, res.Err)
		}
	}
	t.Logf("soak: %d completed exactly, %d degraded honestly", completed, degraded)
	if completed == 0 {
		t.Fatal("every seed degraded; the retry layer absorbs nothing")
	}
}

// TestSpillResumeRefusesCorruption: a resume facing a bit-flipped,
// truncated or garbage-extended manifest must fail loudly, never
// silently restart or explore from a wrong cut.
func TestSpillResumeRefusesCorruption(t *testing.T) {
	g := spillGraph{n: 3000}
	ref := g.run(1, explore.ShardedOptions[uint64]{})
	dir := t.TempDir()
	chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	probe := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	res := g.run(1, capped(ref, spillCfg(t.TempDir(), probe, 256)))
	if res.Err != nil {
		t.Fatalf("probe: %v", res.Err)
	}
	chaos.KillAtOp(probe.Ops() / 2)
	g.run(1, capped(ref, spillCfg(dir, chaos, 256)))
	manifest := filepath.Join(dir, "MANIFEST")
	orig, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("no manifest survived the kill: %v", err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(manifest, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := spillCfg(dir, nil, 256)
			cfg.Resume = true
			res := g.run(1, capped(ref, cfg))
			if res.Err == nil {
				t.Fatalf("resume accepted a %s manifest (admitted %d)", name, res.Stats.Admitted)
			}
			if !res.Stats.Incomplete {
				t.Fatal("refused resume not marked incomplete")
			}
		})
	}
	corrupt("bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) })

	// The pristine manifest still resumes.
	if err := os.WriteFile(manifest, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := spillCfg(dir, nil, 256)
	cfg.Resume = true
	res = g.run(1, capped(ref, cfg))
	if res.Err != nil || res.Stats.Admitted != ref.Stats.Admitted {
		t.Fatalf("pristine resume: err=%v admitted=%d want %d", res.Err, res.Stats.Admitted, ref.Stats.Admitted)
	}
}

// TestSpillResumeRefusesHugeCount: a checksum-valid manifest whose edge
// count claims more edges than its payload has bytes is refused before
// the count sizes anything.  A count taken on trust here asked the
// runtime for 2^40 edges, an out-of-memory crash no recover can catch.
func TestSpillResumeRefusesHugeCount(t *testing.T) {
	const frameManifest = 0x4D
	dir := t.TempDir()
	cfg := spillCfg(dir, nil, 256)
	cfg.Resume = true
	p := binary.AppendUvarint(nil, 1) // version
	p = binary.AppendUvarint(p, frame.Fingerprint(cfg.Header))
	p = binary.AppendUvarint(p, 1) // workers
	for i := 0; i < 8; i++ {
		// next id, processed, dedup, checkpoints; the one shard's
		// generation and run count; the one queue's sequence and segment
		// count.
		p = binary.AppendUvarint(p, 0)
	}
	p = binary.AppendUvarint(p, 1<<40) // edges, and nothing after
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), frame.Append(nil, frameManifest, p), 0o644); err != nil {
		t.Fatal(err)
	}
	res := spillGraph{n: 100}.run(1, explore.ShardedOptions[uint64]{Spill: cfg})
	const want = "manifest edges 1099511627776 exceeds the 0 bytes left in payload; refusing to resume"
	if res.Err == nil || !strings.Contains(res.Err.Error(), want) {
		t.Fatalf("resume from a manifest claiming 2^40 edges: err %v, want %q", res.Err, want)
	}
	if !res.Stats.Incomplete {
		t.Fatal("refused resume not marked incomplete")
	}
}

// rewriteRunLayout re-lays one run file out the way another writer would
// have: the same header and the same entries in the same order, per to a
// block, one frame.Write each.  It returns the largest block it wrote.
func rewriteRunLayout(t *testing.T, path string, per int) int {
	t.Helper()
	const frameRunHeader, frameRunBlock = 0x52, 0x42
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	typ, hdr, err := frame.Read(f)
	if err != nil || typ != frameRunHeader {
		t.Fatalf("%s: header type %d err %v", path, typ, err)
	}
	var entries []explore.RefEntry
	for {
		typ, payload, err := frame.Read(f)
		if err == io.EOF {
			break
		}
		if err != nil || typ != frameRunBlock {
			t.Fatalf("%s: block type %d err %v", path, typ, err)
		}
		blk, err := explore.DecodeRunBlockRef(payload)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		entries = append(entries, blk...)
	}
	largest := 0
	err = frame.WriteFileAtomic(frame.OS{}, path, func(w io.Writer) error {
		if err := frame.Write(w, frameRunHeader, hdr); err != nil {
			return err
		}
		for len(entries) > 0 {
			blk := entries[:min(len(entries), per)]
			entries = entries[len(blk):]
			largest = max(largest, len(blk))
			payload := binary.AppendUvarint(nil, uint64(len(blk)))
			for _, e := range blk {
				payload = binary.BigEndian.AppendUint64(payload, e.FP)
				payload = binary.AppendUvarint(payload, uint64(e.ID))
				payload = binary.AppendUvarint(payload, uint64(len(e.Key)))
				payload = append(payload, e.Key...)
			}
			if err := frame.Write(w, frameRunBlock, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return largest
}

// TestSpillResumeOtherBlockLayout: run files laid out by another writer
// — 256-entry blocks written one frame at a time, as before the run
// writer gathered frames into chunks, and 32-entry blocks, as a writer
// with a smaller block size would (spillVersion is the same for all) —
// and named by a manifest must resume, to the census and completion of
// an uninterrupted run.
func TestSpillResumeOtherBlockLayout(t *testing.T) {
	for _, per := range []int{256, 32} {
		t.Run(fmt.Sprintf("%d-entry-blocks", per), func(t *testing.T) { testSpillResumeOtherBlockLayout(t, per) })
	}
}

func testSpillResumeOtherBlockLayout(t *testing.T, per int) {
	g := spillGraph{n: 4000}
	ref := g.run(1, explore.ShardedOptions[uint64]{})

	probe := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	if res := g.run(1, capped(ref, spillCfg(t.TempDir(), probe, 256))); res.Err != nil {
		t.Fatalf("probe: %v", res.Err)
	}
	dir := t.TempDir()
	chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	chaos.KillAtOp(probe.Ops() / 2)
	g.run(1, capped(ref, spillCfg(dir, chaos, 256)))
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatalf("no manifest survived the kill: %v", err)
	}

	runs, _ := filepath.Glob(filepath.Join(dir, "*.run"))
	largest := 0
	for _, path := range runs {
		largest = max(largest, rewriteRunLayout(t, path, per))
	}
	if largest != per {
		t.Fatalf("largest rewritten block holds %d entries in %d runs; the drill needs full %d-entry blocks", largest, len(runs), per)
	}

	cfg := spillCfg(dir, nil, 256)
	cfg.Resume = true
	res := g.run(1, capped(ref, cfg))
	if res.Err != nil {
		t.Fatalf("resume over rewritten runs failed: %v", res.Err)
	}
	st := res.Stats
	if !st.Spill.Resumed || st.Incomplete {
		t.Fatalf("resumed=%v incomplete=%v", st.Spill.Resumed, st.Incomplete)
	}
	if st.Admitted != ref.Stats.Admitted || st.Processed != ref.Stats.Processed || len(res.Edges) != len(ref.Edges) {
		t.Fatalf("admitted/processed/edges %d/%d/%d, uninterrupted %d/%d/%d",
			st.Admitted, st.Processed, len(res.Edges), ref.Stats.Admitted, ref.Stats.Processed, len(ref.Edges))
	}
	if st.Census.Keys != ref.Stats.Census.Keys || st.Census.Collisions != ref.Stats.Census.Collisions {
		t.Fatalf("census keys/collisions %d/%d, uninterrupted %d/%d",
			st.Census.Keys, st.Census.Collisions, ref.Stats.Census.Keys, ref.Stats.Census.Collisions)
	}
	if st.Spill.Lookups == 0 || st.Spill.BlockReads == 0 {
		t.Fatalf("the resumed run never probed the rewritten runs: %+v", st.Spill)
	}
}

// TestSpillWorkerMismatchRefused: a manifest written with a different
// worker count must refuse (shard ownership is fp mod workers, so the
// run files are meaningless under another count).
func TestSpillWorkerMismatchRefused(t *testing.T) {
	g := spillGraph{n: 3000}
	dir := t.TempDir()
	probe := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	res := g.run(2, explore.ShardedOptions[uint64]{Spill: spillCfg(t.TempDir(), probe, 256)})
	if res.Err != nil {
		t.Fatalf("probe: %v", res.Err)
	}
	chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	chaos.KillAtOp(probe.Ops() / 2)
	g.run(2, explore.ShardedOptions[uint64]{Spill: spillCfg(dir, chaos, 256)})
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Skip("kill landed before the first manifest")
	}
	cfg := spillCfg(dir, nil, 256)
	cfg.Resume = true
	if res := g.run(3, explore.ShardedOptions[uint64]{Spill: cfg}); res.Err == nil {
		t.Fatal("resume with a different worker count accepted")
	}
}

// FuzzSpillFrame feeds arbitrary bytes to the segment-reload path: the
// decoder must reject every mutation (the frame fingerprints make a
// silently-accepted corruption a 2^-64 event) and must never panic.
func FuzzSpillFrame(f *testing.F) {
	g := spillGraph{n: 400}
	dir, err := os.MkdirTemp("", "spillfuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := spillCfg(dir, nil, 64)
	cfg.KeepFiles = true
	res := g.run(1, explore.ShardedOptions[uint64]{Spill: cfg})
	if res.Err != nil {
		f.Fatalf("corpus run failed: %v", res.Err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		f.Fatalf("corpus run left no spill files (err %v)", err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	work, err := os.MkdirTemp("", "spillfuzzwork")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(work)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Present the bytes as a manifest and resume against it: this
		// exercises the frame checksum, the manifest decoder, and the
		// run/segment open paths without ever being allowed to succeed
		// (the fuzzer cannot forge a fingerprint).
		dir := filepath.Join(work, "d")
		os.MkdirAll(dir, 0o755)
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := spillCfg(dir, nil, 64)
		cfg.Resume = true
		res := g.run(1, explore.ShardedOptions[uint64]{Spill: cfg})
		os.RemoveAll(dir)
		if res.Err == nil && res.Stats.Spill.Resumed {
			t.Fatalf("fuzzed manifest resumed successfully")
		}
	})
}
