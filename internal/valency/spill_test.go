package valency_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"randsync/internal/explore"
	"randsync/internal/fault"
	"randsync/internal/frame"
	"randsync/internal/protocol"
	"randsync/internal/sim"
	"randsync/internal/valency"
)

// sameVerdict compares every verdict field of two reports (Stats are
// telemetry and excluded, as everywhere else).
func sameVerdict(t *testing.T, label string, got, want *valency.Report) {
	t.Helper()
	if got.Complete != want.Complete {
		t.Errorf("%s: Complete = %v, want %v", label, got.Complete, want.Complete)
	}
	if got.Configs != want.Configs {
		t.Errorf("%s: Configs = %d, want %d", label, got.Configs, want.Configs)
	}
	if got.Livelock != want.Livelock {
		t.Errorf("%s: Livelock = %v, want %v", label, got.Livelock, want.Livelock)
	}
	if len(got.Decisions) != len(want.Decisions) {
		t.Errorf("%s: Decisions = %v, want %v", label, got.Decisions, want.Decisions)
	}
	for v := range want.Decisions {
		if !got.Decisions[v] {
			t.Errorf("%s: missing decision %d", label, v)
		}
	}
	switch {
	case (got.Violation == nil) != (want.Violation == nil):
		t.Errorf("%s: Violation = %v, want %v", label, got.Violation, want.Violation)
	case got.Violation != nil:
		if got.Violation.Kind != want.Violation.Kind || got.Violation.Detail != want.Violation.Detail {
			t.Errorf("%s: Violation = %v, want %v", label, got.Violation, want.Violation)
		}
	}
}

// failFast caps a spill run that should reproduce ref's configuration
// count at a small multiple of it.  A tier that re-admits visited keys
// then ends in a quick count mismatch, instead of exploring (and writing
// to disk) until the test times out.
func failFast(ref *valency.Report) int { return 4 * ref.Configs }

// TestCheckSpillDifferential: the disk-tiered engine returns the serial
// engine's verdict — clean protocols and flawed ones, one worker and
// several, with the hot tier squeezed enough to force disk traffic.
func TestCheckSpillDifferential(t *testing.T) {
	cases := []struct {
		proto  sim.Protocol
		inputs []int64
	}{
		{protocol.NewCounterWalk(2), []int64{0, 1}},
		{protocol.NewSwap2(), []int64{1, 0}},
		{protocol.RegisterNaive2{}, []int64{0, 1}},
		{protocol.NewRegisterFlood(2), []int64{0, 1}},
	}
	for _, tc := range cases {
		ref := valency.Check(tc.proto, tc.inputs, valency.Options{})
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%s/workers=%d", tc.proto.Name(), workers)
			opts := valency.Options{
				Workers:   workers,
				MemBudget: 1 << 10, // a few keys of hot tier: everything else on disk
				SpillDir:  t.TempDir(),
			}
			if ref.Violation == nil {
				opts.MaxConfigs = failFast(ref)
			}
			rep, err := valency.CheckSpill(tc.proto, tc.inputs, opts)
			if err != nil {
				t.Fatalf("%s: CheckSpill: %v", label, err)
			}
			sameVerdict(t, label, rep, ref)
			if rep.Violation == nil && rep.Stats.Spill == nil {
				t.Errorf("%s: no spill telemetry on a spill run", label)
			}
			// Tiny spaces (swap-2) fit in the hot tier; for the rest the
			// squeezed budget must actually engage the disk.
			if sp := rep.Stats.Spill; sp != nil && rep.Configs > 200 && sp.Flushes == 0 {
				t.Errorf("%s: hot tier of %d bytes never flushed to disk (%d configs)", label, opts.MemBudget, rep.Configs)
			}
		}
	}
}

// TestCheckSpillBeyondMemBudget is the acceptance criterion of the
// tiered engine: a run whose visited set outgrows the memory budget
// evicts to disk and completes, with the configuration count of the
// in-RAM run.  The counter-walk n=3 row is the benchmark's spill-evict
// job; it also pins what a cold probe reads, since a block read is the
// unit of that job's cost (~1.1 KiB with 32-entry blocks, ~8.7 KiB with
// 256).
func TestCheckSpillBeyondMemBudget(t *testing.T) {
	cases := []struct {
		name          string
		proto         sim.Protocol
		inputs        []int64
		workers       int
		memBudget     int64
		configs       int   // the in-RAM run's count
		maxBlockBytes int64 // per block read; 0 leaves probes unpinned
	}{
		{"counter-walk-2", protocol.NewCounterWalk(2), []int64{0, 1}, 0, 2 << 10, 0, 0},
		{"counter-walk-3-spill-evict", protocol.NewCounterWalk(3), []int64{0, 1, 0}, 2, 64 << 10, 28499, 2 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := valency.Check(tc.proto, tc.inputs, valency.Options{Workers: tc.workers})
			if !full.Complete {
				t.Fatalf("reference run incomplete; enlarge the budget")
			}
			if tc.configs != 0 && full.Configs != tc.configs {
				t.Fatalf("in-RAM run explored %d configs, want %d", full.Configs, tc.configs)
			}
			spilled, err := valency.CheckSpill(tc.proto, tc.inputs, valency.Options{
				Workers: tc.workers, MemBudget: tc.memBudget, SpillDir: t.TempDir(), MaxConfigs: failFast(full),
			})
			if err != nil {
				t.Fatalf("CheckSpill: %v", err)
			}
			if !spilled.Complete {
				t.Fatalf("spill run incomplete under MemBudget %d", tc.memBudget)
			}
			if spilled.Configs != full.Configs {
				t.Fatalf("spill run explored %d configs, in-RAM run %d", spilled.Configs, full.Configs)
			}
			sp := spilled.Stats.Spill
			if sp == nil || sp.Flushes == 0 {
				t.Fatalf("MemBudget %d never evicted (%+v); tighten it", tc.memBudget, sp)
			}
			if tc.maxBlockBytes == 0 {
				return
			}
			if sp.Lookups == 0 || sp.BlockReads == 0 {
				t.Fatalf("the spill run never probed a cold shard: %+v", sp)
			}
			if per := sp.BlockBytes / sp.BlockReads; per > tc.maxBlockBytes {
				t.Fatalf("%d bytes per block read (%d reads, %d bytes), want at most %d",
					per, sp.BlockReads, sp.BlockBytes, tc.maxBlockBytes)
			}
		})
	}
}

// TestCheckAllInputsSpillCleansUp: a completed sweep leaves no cursor,
// manifests or spill data behind, so it cannot be mistakenly resumed.
func TestCheckAllInputsSpillCleansUp(t *testing.T) {
	dir := t.TempDir()
	proto := protocol.NewCounterWalk(2)
	ref := valency.CheckAllInputs(proto, 2, valency.Options{})
	const workers = 4
	rep, err := valency.CheckAllInputsSpill(proto, 2, valency.Options{
		MemBudget: 1 << 10, SpillDir: dir, SpillCheckpointEvery: 64, Workers: workers,
		MaxConfigs: failFast(ref),
	})
	if err != nil {
		t.Fatalf("CheckAllInputsSpill: %v", err)
	}
	sameVerdict(t, "all-inputs", rep, ref)
	// The aggregate folds the per-vector engine census like every other
	// all-inputs sweep: one stripe per worker, not zero.
	if rep.Stats == nil || rep.Stats.Stripes != workers {
		t.Errorf("aggregate stripes = %+v, want %d", rep.Stats, workers)
	}
	ents, err := frame.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		t.Errorf("completed sweep left %s behind", e.Name())
	}
}

// killCuts are the disk operations TestCheckAllInputsSpillKillResume
// kills its sweep at: one at the start and three spread over the ~3.8k
// ops of the uninterrupted sweep, landing early, mid-vector and between
// vectors.  They are fixed, not fractions of the probe's count, so a
// change to how many ops the spill tier makes keeps the subtest names.
var killCuts = []int64{2, 938, 1876, 2814}

// TestCheckAllInputsSpillKillResume kills a sweep at several operation
// counts — early, mid-vector, between vectors — and resumes each; the
// killed run must degrade honestly and the resumed run must reproduce
// the uninterrupted verdict exactly.
func TestCheckAllInputsSpillKillResume(t *testing.T) {
	proto := protocol.NewCounterWalk(2)
	const n = 2
	ref := valency.CheckAllInputs(proto, n, valency.Options{})
	baseOpts := valency.Options{MemBudget: 1 << 10, SpillCheckpointEvery: 32, MaxConfigs: failFast(ref)}

	// Probe: count the disk operations of an uninterrupted spill sweep.
	probe := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	probeOpts := baseOpts
	probeOpts.SpillDir = t.TempDir()
	probeOpts.SpillFS = probe
	if _, err := valency.CheckAllInputsSpill(proto, n, probeOpts); err != nil {
		t.Fatalf("probe sweep: %v", err)
	}
	total := probe.Ops()
	if last := killCuts[len(killCuts)-1]; total <= last {
		t.Fatalf("probe sweep made only %d disk ops; the kill at op %d would never fire", total, last)
	}

	for _, cut := range killCuts {
		t.Run(fmt.Sprintf("kill@%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
			chaos.KillAtOp(cut)
			opts := baseOpts
			opts.SpillDir = dir
			opts.SpillFS = chaos
			rep, err := valency.CheckAllInputsSpill(proto, n, opts)
			if err == nil {
				t.Fatalf("killed sweep reported no error (report %+v)", rep)
			}
			if rep != nil && rep.Complete {
				t.Fatalf("killed sweep claims a complete verdict: %+v", rep)
			}

			resumeOpts := baseOpts
			resumeOpts.SpillDir = dir
			resumeOpts.SpillResume = true
			resumed, err := valency.CheckAllInputsSpill(proto, n, resumeOpts)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			sameVerdict(t, "resumed", resumed, ref)
		})
	}
}

// failVectorFS refuses to create one vector's spill directory, so a
// sweep stops there with the cursor of the vectors before it durable.
type failVectorFS struct {
	frame.FS
	vec string
}

func (f failVectorFS) MkdirAll(path string) error {
	if filepath.Base(path) == f.vec {
		return errors.New("injected mkdir failure")
	}
	return f.FS.MkdirAll(path)
}

// TestVectorCursorCorruptionRefused: a truncated, bit-flipped or
// garbage-trailed vector cursor, a checksum-valid cursor payload cut at
// any byte, and a cursor written by another job must all refuse to
// resume with a clear error — never resume the sweep at a wrong vector
// with a wrong aggregate.  The pristine cursor then resumes to the
// uninterrupted verdict.
func TestVectorCursorCorruptionRefused(t *testing.T) {
	proto := protocol.NewCounterWalk(2)
	const n = 2
	ref := valency.CheckAllInputs(proto, n, valency.Options{})
	seed := func(opts valency.Options) []byte {
		t.Helper()
		opts.SpillDir = t.TempDir()
		opts.SpillFS = failVectorFS{frame.OS{}, "vec0002"}
		if _, err := valency.CheckAllInputsSpill(proto, n, opts); err == nil {
			t.Fatal("sweep with an unwritable vector reported no error")
		}
		b, err := os.ReadFile(filepath.Join(opts.SpillDir, "vectors.ckpt"))
		if err != nil {
			t.Fatalf("no cursor survived the stopped sweep: %v", err)
		}
		return b
	}
	good := seed(valency.Options{})
	other := seed(valency.Options{NoSymmetry: true})
	const frameVectorCursor = 0x56
	typ, payload, err := frame.Read(bytes.NewReader(good))
	if err != nil || typ != frameVectorCursor {
		t.Fatalf("cursor frame type %#x, err %v", typ, err)
	}
	resume := func(cursor []byte) (*valency.Report, error) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "vectors.ckpt"), cursor, 0o644); err != nil {
			t.Fatal(err)
		}
		return valency.CheckAllInputsSpill(proto, n, valency.Options{SpillDir: dir, SpillResume: true})
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	cases := []struct {
		name   string
		cursor []byte
		want   string
	}{
		{"truncated", good[:len(good)-7], "refusing to resume"},
		{"bit-flipped", flipped, "refusing to resume"},
		{"trailing-garbage", append(append([]byte(nil), good...), 0xde, 0xad), "trailing bytes"},
		{"other-job", other, "different job"},
	}
	for cut := 0; cut < len(payload); cut++ {
		cases = append(cases, struct {
			name   string
			cursor []byte
			want   string
		}{fmt.Sprintf("payload-cut@%d", cut), frame.Append(nil, frameVectorCursor, payload[:cut]), "vector cursor"})
	}
	for _, tc := range cases {
		rep, err := resume(tc.cursor)
		if err == nil {
			t.Fatalf("%s: corrupt cursor resumed without error (report %+v)", tc.name, rep)
		}
		if !strings.Contains(err.Error(), tc.want) || !errors.Is(err, frame.ErrCannotResume) {
			t.Errorf("%s: err = %v, want mention of %q matching ErrCannotResume", tc.name, err, tc.want)
		}
	}

	// A cursor that cannot be read is no refusal: a retry may heal it.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "vectors.ckpt"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	unreadable := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{ReadErr: 1000})
	if _, err := valency.CheckAllInputsSpill(proto, n, valency.Options{SpillDir: dir, SpillFS: unreadable, SpillResume: true}); err == nil || errors.Is(err, frame.ErrCannotResume) {
		t.Fatalf("resume whose every read fails: err %v, want an I/O error that is no refusal", err)
	}

	rep, err := resume(good)
	if err != nil {
		t.Fatalf("pristine cursor: %v", err)
	}
	sameVerdict(t, "pristine-resume", rep, ref)
}

// TestCheckSpillFaultSoak drives the full checker through seeded disk
// chaos: whatever the fault schedule, a run either completes with the
// reference verdict or degrades to an honest incomplete one with the
// fault attached — never a wrong verdict, never a panic.
func TestCheckSpillFaultSoak(t *testing.T) {
	proto := protocol.NewCounterWalk(2)
	inputs := []int64{0, 1}
	ref := valency.Check(proto, inputs, valency.Options{})
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	completed, degraded := 0, 0
	for seed := 0; seed < seeds; seed++ {
		// Rates come in two tiers because the composite ops underneath
		// compound them: a segment reload or run flush touches ~65
		// frames in one retry attempt, so a per-op probability is felt
		// ~65x per attempt, and at tens of per-mille no 4-attempt retry
		// loop survives.  Even seeds get a gentle plan (faults the
		// retries absorb: the happy path must reproduce the reference
		// verdict exactly), odd seeds a hot one (faults that outlast
		// the retries: degradation must stay honest).
		rate := 2
		if seed%2 == 1 {
			rate = 40
		}
		chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{
			Seed:     uint64(seed)*0x9e37 + 1,
			WriteErr: rate, ShortWrite: rate, SyncErr: rate, OpenErr: rate / 2, ReadErr: rate, ReadCorrupt: rate,
		})
		rep, err := valency.CheckSpill(proto, inputs, valency.Options{
			MemBudget: 1 << 10, SpillDir: t.TempDir(), SpillFS: chaos,
			SpillCheckpointEvery: 64, Workers: 2, MaxConfigs: failFast(ref),
		})
		if err != nil {
			if rep != nil && rep.Complete {
				t.Fatalf("seed %d: error %v alongside a complete verdict", seed, err)
			}
			t.Logf("seed %d: degraded: %v", seed, err)
			degraded++
			continue
		}
		completed++
		sameVerdict(t, fmt.Sprintf("seed %d", seed), rep, ref)
	}
	t.Logf("soak: %d/%d completed exactly, %d degraded honestly", completed, seeds, degraded)
	if completed == 0 {
		t.Fatalf("all %d seeds degraded; fault rates are too hot to exercise the happy path", seeds)
	}
}

// TestSpillRefusesDirtyDir: a fresh (non-resume) run refuses a
// directory holding a previous run's checkpoint instead of silently
// mixing state, and a sweep refuses an unfinished cursor without
// -resume or a corrupt cursor with it.
func TestSpillRefusesDirtyDir(t *testing.T) {
	proto := protocol.NewCounterWalk(2)

	dir := t.TempDir()
	fs := frame.OS{}
	writeFile := func(name string, data []byte) {
		t.Helper()
		f, err := fs.Create(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	writeFile(explore.ManifestName, []byte("stale"))
	if _, err := valency.CheckSpill(proto, []int64{0, 1}, valency.Options{SpillDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("CheckSpill on a dirty dir: err = %v, want refusal mentioning resume", err)
	}

	dir = t.TempDir()
	writeFile("vectors.ckpt", []byte("garbage"))
	if _, err := valency.CheckAllInputsSpill(proto, 2, valency.Options{SpillDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("sweep on unfinished dir without resume: err = %v, want refusal", err)
	}
	if _, err := valency.CheckAllInputsSpill(proto, 2, valency.Options{SpillDir: dir, SpillResume: true}); err == nil {
		t.Fatalf("sweep resume with corrupt cursor: err = nil, want refusal")
	}
}
