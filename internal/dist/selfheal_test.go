package dist

// selfheal_test.go exercises the cluster's recovery machinery: seeded
// network chaos on the wire, worker reconnect with stable identity,
// coordinator kill + checkpoint resume, heartbeat death of a worker
// stuck in a batch, older checkpoint compatibility, and checkpoint
// corruption refusal.  Every differential holds the self-healed run to
// the same verdict as the serial engine — recovery may cost telemetry,
// never correctness.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/frame"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// fastRecovery tunes every recovery clock down to milliseconds so the
// tests exercise the paths, not the production timeouts.
func fastRecovery() Options {
	return Options{
		HeartbeatEvery: 15 * time.Millisecond,
		DeadAfter:      400 * time.Millisecond,
		NetTimeout:     2 * time.Second,
		RejoinGrace:    2 * time.Second,
	}
}

// soakPlan is the default chaos mix with delays shortened so a test
// soak finishes in seconds.
func soakPlan() fault.NetPlanOptions {
	p := fault.DefaultNetPlan()
	p.MaxDelay = time.Millisecond
	return p
}

// TestChaosSoakDifferential is the acceptance soak: every zoo protocol
// runs through a loopback cluster whose wire is subjected to a seeded
// chaos plan (delays, duplicates, reorders, truncations), and
// the verdict — including the canonical counterexample for the flawed
// protocols — must equal the serial engine's.
func TestChaosSoakDifferential(t *testing.T) {
	specs := zoo.Examples()
	if testing.Short() {
		specs = specs[:4] // full zoo soak belongs to the non-short pass
	}
	for i, spec := range specs {
		proto, err := zoo.Resolve(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		inputs := []int64{0, 1}
		serial := valency.Check(proto, inputs, valency.Options{})
		seed := uint64(1000 + i)
		rep, err := LoopbackChaos(LoopbackConfig{
			Workers:   3,
			ChaosSeed: seed,
			ChaosPlan: soakPlan(),
		}, Job{Spec: spec, Inputs: inputs}, fastRecovery())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		requireSameReport(t, spec.Name+"/chaos", serial, rep)
		if rep.Stats == nil || rep.Stats.Recovery == nil {
			t.Fatalf("%s: no recovery block under chaos", spec.Name)
		}
		if rep.Stats.Recovery.ChaosSeed != seed {
			t.Errorf("%s: chaos seed %d not echoed (got %d)", spec.Name, seed, rep.Stats.Recovery.ChaosSeed)
		}
	}
}

// TestChaosAllInputsDifferential: the full 2^n input-vector sweep under
// wire chaos.  This is the scenario where a reordered or duplicated
// per-vector frame could leave a worker silently exploring the
// *previous* vector's state space — the epoch stamp on every job,
// batch, and completion is what catches it.  Several seeds, because
// which frame the plan attacks decides whether a job handoff is hit.
func TestChaosAllInputsDifferential(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	serial := valency.CheckAllInputs(proto, 2, valency.Options{})
	seeds := []uint64{3, 7, 11, 19}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rep, err := LoopbackChaos(LoopbackConfig{
			Workers:   3,
			ChaosSeed: seed,
			ChaosPlan: soakPlan(),
		}, Job{Spec: spec, AllInputs: true}, fastRecovery())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameReport(t, fmt.Sprintf("counter-walk/all-inputs/seed=%d", seed), serial, rep)
	}
}

// TestChaosCutReconnect: a cut-only plan severs every worker's
// connection on a fixed frame cadence; workers must reconnect with
// their stable identity and the coordinator must count rejoins, not new
// peers — and the verdict must not notice any of it.  A session carries
// at most 9 worker→coordinator frames before its cut, and the job needs
// minBatches acknowledgements plus two HELLOs, more than two sessions
// carry: the cut provably fires mid-vector and a rejoined session
// finishes the job.
func TestChaosCutReconnect(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	for run := 0; run < 2; run++ { // same seed twice: recovery reproduces
		rep, err := LoopbackChaos(LoopbackConfig{
			Workers:   2,
			ChaosSeed: 5,
			ChaosPlan: fault.NetPlanOptions{CutEvery: 10},
		}, Job{Spec: spec, Inputs: inputs}, fastRecovery())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		requireSameReport(t, "counter-walk/cut", serial, rep)
		rec := rep.Stats.Recovery
		if rec == nil || rec.Reconnects < 1 {
			t.Fatalf("run %d: no reconnects recorded under CutEvery: %+v", run, rec)
		}
		if rep.Stats.Workers != 2 {
			t.Errorf("run %d: reconnects inflated the worker census: %d", run, rep.Stats.Workers)
		}
	}
}

// TestChaosWorkerKillMidRun: wire chaos plus a worker murdered by its
// batch hook on the cluster's sixth batch — mid-vector, since the job
// needs minBatches — and the compounded failure still yields the serial
// verdict.
func TestChaosWorkerKillMidRun(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	kill := killAt(5)
	rep, err := LoopbackChaos(LoopbackConfig{
		Workers:   3,
		Hooks:     []func(int64){kill, kill, kill},
		ChaosSeed: 77,
		ChaosPlan: soakPlan(),
	}, Job{Spec: spec, Inputs: inputs}, fastRecovery())
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/chaos+kill", serial, rep)
	rec := rep.Stats.Recovery
	if rec == nil || rec.WorkerDeaths < 1 {
		t.Fatalf("worker death not recorded: %+v", rec)
	}
}

// TestCoordinatorRestartResume is the kill-the-coordinator drill: the
// coordinator aborts mid-run (checkpoint on disk, listener torn down)
// while the workers stay up and retry; a new coordinator binds the same
// address, resumes from the verified checkpoint, the workers rejoin,
// and the finished verdict equals the serial engine's.
func TestCoordinatorRestartResume(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()

	opts := fastRecovery()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "dist.ckpt")
	opts.CheckpointEvery = 4

	first, stop := interruptAt(opts, 10) // < minBatches
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wopts := WorkerOptions{
			ID:          uint64(i + 1),
			Done:        done,
			MaxAttempts: 1 << 20,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			NetTimeout:  2 * time.Second,
			Hook:        stop,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = Work(addr, wopts)
		}()
	}

	_, err = Serve(ln1, 2, Job{Spec: spec, Inputs: inputs}, first)
	if !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("first serve: err = %v, want valency.ErrInterrupted", err)
	}
	if _, n := checkpointFrontier(t, Job{Spec: spec, Inputs: inputs}, opts); n == 0 {
		t.Fatal("interrupt checkpoint holds an empty frontier: not mid-vector")
	}
	// Kill the coordinator: the listener goes down under the workers,
	// which enter their backoff loops against the same address.
	ln1.Close()

	var ln2 net.Listener
	for i := 0; i < 200; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}

	rep, err := Serve(ln2, 2, Job{Spec: spec, Inputs: inputs}, opts)
	ln2.Close()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("resumed serve: %v", err)
	}
	requireSameReport(t, "counter-walk/coordinator-restart", serial, rep)
	rec := rep.Stats.Recovery
	if rec == nil || rec.CheckpointResumes != 1 {
		t.Fatalf("recovery = %+v, want exactly one checkpoint resume", rec)
	}
	if _, err := os.Stat(opts.CheckpointPath); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint not removed after success: %v", err)
	}
}

// TestSlowWorkerDeclaredDead: a worker stuck in a batch (sleeping
// hook, connection intact) stops answering pings, so DeadAfter buries
// it like a dead one — its batches re-queue to the survivor and the
// verdict does not notice.  The hook runs on both workers and sleeps
// once, so the cluster's first batch is the one that sticks.
func TestSlowWorkerDeclaredDead(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	opts := fastRecovery()
	var once sync.Once
	slow := func(batchID int64) {
		once.Do(func() { time.Sleep(2 * opts.DeadAfter) })
	}
	rep, err := LoopbackChaos(LoopbackConfig{
		Workers: 2,
		Hooks:   []func(int64){slow, slow},
	}, Job{Spec: spec, Inputs: inputs}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/slow-worker", serial, rep)
	rec := rep.Stats.Recovery
	if rec == nil || rec.WorkerDeaths < 1 || rec.RequeuedBatches < 1 {
		t.Fatalf("slow worker not buried by heartbeat: %+v", rec)
	}
}

// TestCheckpointOldVersionRefused: a version-2 checkpoint kept one key
// list per fingerprint shard, a layout version 3 no longer reads.  A
// snapshot stamped 2 is refused by its version before any of its
// payload is trusted; the same bytes stamped 3 resume to the serial
// verdict.
func TestCheckpointOldVersionRefused(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{CheckpointPath: ckpt, CheckpointEvery: 4}
	first, stop := interruptAt(opts, 12) // < minBatches
	if _, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, first, stop, stop); !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("seeding interrupt: err = %v, want valency.ErrInterrupted", err)
	}
	payload, err := frame.ReadFile(frame.OS{}, ckpt, msgCheckpoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := frame.NewReader(payload)
	if v := r.Uvarint("version"); v != checkpointVersion || checkpointVersion != 3 {
		t.Fatalf("checkpoint written as version %d (current %d), want 3", v, checkpointVersion)
	}
	old := binary.AppendUvarint(nil, 2)
	old = append(old, r.Rest()...)
	if err := os.WriteFile(ckpt, frame.Append(nil, msgCheckpoint, old), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "checkpoint version 2, want 3"
	if _, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, opts); err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, frame.ErrCannotResume) {
		t.Fatalf("resume from a version-2 checkpoint: err %v, want %q matching frame.ErrCannotResume", err, want)
	}

	if err := os.WriteFile(ckpt, frame.Append(nil, msgCheckpoint, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/version-3-resume", serial, rep)
	if rec := rep.Stats.Recovery; rec == nil || rec.CheckpointResumes != 1 {
		t.Fatalf("recovery = %+v, want exactly one checkpoint resume", rec)
	}
}

// TestCheckpointCorruptionRefused: a truncated, bit-flipped, or
// garbage-trailed checkpoint must refuse to resume with a clear error —
// never silently explore from a corrupt frontier.
func TestCheckpointCorruptionRefused(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	inputs := []int64{0, 1}
	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{CheckpointPath: ckpt, CheckpointEvery: 4}

	first, stop := interruptAt(opts, 12) // < minBatches
	if _, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, first, stop, stop); !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("seeding interrupt: err = %v, want valency.ErrInterrupted", err)
	}
	good, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-7] }, "refusing to resume"},
		{"bit-flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}, "refusing to resume"},
		{"trailing-garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xde, 0xad) }, "trailing bytes"},
	}
	for _, tc := range cases {
		if err := os.WriteFile(ckpt, tc.mutate(good), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, opts)
		if err == nil {
			t.Fatalf("%s: corrupt checkpoint resumed without error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) || !errors.Is(err, frame.ErrCannotResume) {
			t.Errorf("%s: err = %v, want mention of %q matching frame.ErrCannotResume", tc.name, err, tc.want)
		}
	}

	// The pristine snapshot still resumes and finishes the job.
	if err := os.WriteFile(ckpt, good, 0o644); err != nil {
		t.Fatal(err)
	}
	proto, _ := zoo.Resolve(spec)
	serial := valency.Check(proto, inputs, valency.Options{})
	rep, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/pristine-resume", serial, rep)
}

// TestCheckpointRefusesHugeCount: a checksum-valid checkpoint of this
// job whose input count claims more inputs than its payload has bytes
// is refused before the count sizes anything.  A count taken on trust
// here asked the runtime for 2^40 inputs, an out-of-memory crash no
// recover can catch.
func TestCheckpointRefusesHugeCount(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	co, err := newCoord(Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}},
		Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	p := binary.AppendUvarint(nil, checkpointVersion)
	p = binary.AppendUvarint(p, co.snapshot().Job)
	for i := 0; i < 14; i++ {
		// The aggregate: vector cursor, configs, flags, an empty
		// decision set, four stats counters, batches and the recovery
		// block.
		p = binary.AppendUvarint(p, 0)
	}
	p = binary.AppendUvarint(p, 1<<40) // inputs, and nothing after
	if err := os.WriteFile(ckpt, frame.Append(nil, msgCheckpoint, p), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "ckpt inputs len 1099511627776 exceeds the 0 bytes left in payload"
	if ok, err := co.tryResume(); ok || !strings.Contains(fmt.Sprint(err), want) || !errors.Is(err, frame.ErrCannotResume) {
		t.Fatalf("resume from a checkpoint claiming 2^40 inputs: resumed %v, err %v, want %q", ok, err, want)
	}
}

// TestWorkerGivesUp: a worker dialing a dead address exhausts its
// attempt budget and reports the failure instead of retrying forever.
func TestWorkerGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	err = Work(dead, WorkerOptions{
		ID:          9,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
}

// TestWorkerDoneCancels: a closed Done channel ends the retry loop
// cleanly (nil), the shutdown path Loopback relies on.
func TestWorkerDoneCancels(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	done := make(chan struct{})
	close(done)
	if err := Work(dead, WorkerOptions{ID: 9, Done: done, BaseBackoff: time.Millisecond}); err != nil {
		t.Fatalf("err = %v, want nil after Done", err)
	}
}

// recordingFS logs every Create, Open, Rename and Remove by base name
// and fails the first failCreates Creates.
type recordingFS struct {
	frame.FS
	mu          sync.Mutex
	ops         []string
	failCreates int
}

func (f *recordingFS) note(op string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	fail := strings.HasPrefix(op, "create") && f.failCreates > 0
	if fail {
		f.failCreates--
		op += " (failed)"
	}
	f.ops = append(f.ops, op)
	return fail
}

func (f *recordingFS) Create(name string) (frame.File, error) {
	if f.note("create " + filepath.Base(name)) {
		return nil, errors.New("injected create failure")
	}
	return f.FS.Create(name)
}

func (f *recordingFS) Open(name string) (frame.File, error) {
	f.note("open " + filepath.Base(name))
	return f.FS.Open(name)
}

func (f *recordingFS) Rename(oldpath, newpath string) error {
	f.note("rename " + filepath.Base(oldpath) + " " + filepath.Base(newpath))
	return f.FS.Rename(oldpath, newpath)
}

func (f *recordingFS) Remove(name string) error {
	f.note("remove " + filepath.Base(name))
	return f.FS.Remove(name)
}

// TestCheckpointThroughSpillFS: the snapshot is read, written, renamed
// into place and removed through Options.Valency.SpillFS, and its
// writes retry under frame.Retry: a failed Create is tried again at
// once, not left to the next snapshot.
func TestCheckpointThroughSpillFS(t *testing.T) {
	dir := t.TempDir()
	fsys := &recordingFS{FS: frame.OS{}, failCreates: 1}
	opts := Options{CheckpointPath: filepath.Join(dir, "dist.ckpt"), CheckpointEvery: 4}
	opts.Valency.SpillFS = fsys
	rep, err := Loopback(2, Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, op := range fsys.ops {
		count[op]++
	}
	written := int(rep.Stats.Recovery.CheckpointsWritten)
	if written < 1 || count["rename dist.ckpt.tmp dist.ckpt"] != written || count["create dist.ckpt.tmp"] != written {
		t.Fatalf("%d snapshots written, ops %v: want one create and one rename through SpillFS each", written, count)
	}
	if fsys.ops[0] != "open dist.ckpt" || count["remove dist.ckpt"] != 1 || fsys.ops[len(fsys.ops)-1] != "remove dist.ckpt" {
		t.Fatalf("ops %v: want the resume read first and the removal last, through SpillFS", fsys.ops)
	}
	for i, op := range fsys.ops {
		if op == "create dist.ckpt.tmp (failed)" && fsys.ops[i+1] != "create dist.ckpt.tmp" {
			t.Fatalf("ops %v: the failed Create was not retried at once", fsys.ops)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("finished run left %v (%v) behind", ents, err)
	}
}
