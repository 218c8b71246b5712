package dist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/frame"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// requireSameReport asserts byte-identical verdicts: every Report field
// except the Stats telemetry must match the serial reference.
func requireSameReport(t *testing.T, name string, serial, dist *valency.Report) {
	t.Helper()
	if serial.Complete != dist.Complete {
		t.Errorf("%s: Complete: serial %v, dist %v", name, serial.Complete, dist.Complete)
	}
	if serial.Configs != dist.Configs {
		t.Errorf("%s: Configs: serial %d, dist %d", name, serial.Configs, dist.Configs)
	}
	if serial.Livelock != dist.Livelock {
		t.Errorf("%s: Livelock: serial %v, dist %v", name, serial.Livelock, dist.Livelock)
	}
	if len(serial.Decisions) != len(dist.Decisions) {
		t.Errorf("%s: Decisions: serial %v, dist %v", name, serial.Decisions, dist.Decisions)
	}
	for v := range serial.Decisions {
		if !dist.Decisions[v] {
			t.Errorf("%s: decision %d reachable serially but not distributed", name, v)
		}
	}
	sv, dv := serial.Violation, dist.Violation
	switch {
	case sv == nil && dv == nil:
	case sv == nil || dv == nil:
		t.Errorf("%s: Violation: serial %v, dist %v", name, sv, dv)
	default:
		if sv.Kind != dv.Kind {
			t.Errorf("%s: violation kind: serial %v, dist %v", name, sv.Kind, dv.Kind)
		}
		if sv.Detail != dv.Detail {
			t.Errorf("%s: violation detail: serial %q, dist %q", name, sv.Detail, dv.Detail)
		}
		if sv.Trace.String() != dv.Trace.String() {
			t.Errorf("%s: violation traces differ:\nserial:\n%v\ndist:\n%v", name, sv.Trace, dv.Trace)
		}
	}
}

// TestLoopbackSerialDifferential: for every zoo protocol on the mixed
// input vector, a loopback cluster of 4 workers must return the same
// verdict as the serial reference — including the exact canonical
// counterexample for the flawed protocols.
func TestLoopbackSerialDifferential(t *testing.T) {
	for _, spec := range zoo.Examples() {
		proto, err := zoo.Resolve(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		inputs := []int64{0, 1}
		serial := valency.Check(proto, inputs, valency.Options{})
		rep, err := Loopback(4, Job{Spec: spec, Inputs: inputs}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		requireSameReport(t, spec.Name, serial, rep)
		if rep.Stats == nil || rep.Stats.Shards != 1 || rep.Stats.Workers != 4 {
			t.Errorf("%s: missing cluster stats: %+v", spec.Name, rep.Stats)
		}
	}
}

// TestLoopbackAllInputsDifferential: the all-vectors sweep aggregates
// exactly like valency.CheckAllInputs — safe aggregate for the clean
// protocols, the canonical first-vector counterexample for the flawed
// ones.
func TestLoopbackAllInputsDifferential(t *testing.T) {
	for _, spec := range []ProtoSpec{
		{Name: "cas", N: 2},
		{Name: "counter-walk", N: 2},
		{Name: "register-naive-2", N: 2},
		{Name: "flood-mixed", N: 2, R: 2},
	} {
		proto, err := zoo.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		serial := valency.CheckAllInputs(proto, 2, valency.Options{})
		rep, err := Loopback(4, Job{Spec: spec, AllInputs: true}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		requireSameReport(t, spec.Name+"/all-inputs", serial, rep)
	}
}

// TestLoopbackAllInputsClusterStats: a cluster run's report says one
// visited set — Stats.Shards is 1 on the all-inputs aggregate, which is
// what marks it a cluster run — and carries no stripe census: the
// coordinator's key set is not a fingerprint partition.
func TestLoopbackAllInputsClusterStats(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	rep, err := Loopback(2, Job{Spec: spec, AllInputs: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/all-inputs", valency.CheckAllInputs(proto, spec.N, valency.Options{}), rep)
	if st := rep.Stats; st.Shards != 1 || st.Workers != 2 || st.Stripes != 0 || st.MinStripeKeys != 0 || st.MaxStripeKeys != 0 {
		t.Fatalf("cluster stats shards=%d workers=%d stripes=%d min=%d max=%d, want 1/2/0/0/0",
			st.Shards, st.Workers, st.Stripes, st.MinStripeKeys, st.MaxStripeKeys)
	}
}

// TestLoopbackCrashDifferential: crash-schedule runs — the checker
// world's fault model — survive distribution: visit keys carry the
// crash tag, workers respect the schedule, verdicts match serial.
func TestLoopbackCrashDifferential(t *testing.T) {
	cases := []struct {
		spec  ProtoSpec
		crash []int
	}{
		{ProtoSpec{Name: "cas", N: 2}, []int{1, -1}},
		{ProtoSpec{Name: "counter-walk", N: 2}, []int{-1, 2}},
		{ProtoSpec{Name: "fetch&add-2", N: 2}, []int{0, -1}},
		{ProtoSpec{Name: "flood-registers", N: 2, R: 2}, []int{2, -1}},
	}
	for _, tc := range cases {
		proto, err := zoo.Resolve(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []int64{0, 1}
		vopts := valency.Options{Crash: tc.crash}
		serial := valency.Check(proto, inputs, vopts)
		rep, err := Loopback(3, Job{Spec: tc.spec, Inputs: inputs}, Options{Valency: vopts})
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		requireSameReport(t, tc.spec.Name+"/crash", serial, rep)
	}
}

// minBatches is a floor on the batches any run of counter-walk n = 2
// on inputs (0, 1) acknowledges: its configuration graph has BFS depth
// 27, and a configuration is dispatched only after the batch that
// discovered it is acknowledged, so the deepest one ends a chain of 28
// batches.  A fault placed at batch k ≤ 27 therefore lands mid-vector,
// however full the batches are.
const minBatches = 28

// killAt returns one batch hook for every worker of a cluster: a
// fault-injector crash that panics (murdering whichever worker runs it,
// mid-batch, effects unsent) on the (k+1)-th batch the cluster
// receives.  The mutex serializes the injector across workers.
func killAt(k int64) func(int64) {
	inj := fault.NewInjector(1, fault.SingleCrash(0, k), 1<<20)
	var mu sync.Mutex
	return func(int64) {
		mu.Lock()
		defer mu.Unlock()
		inj.Point(0)
	}
}

// TestWorkerKilledMidRun: a fault-injector hook murders the worker
// that receives the cluster's sixth batch (panic mid-batch, effects
// unsent) — mid-vector, since the job needs minBatches.  The
// coordinator must re-queue the lost batch for the survivors and still
// produce the serial verdict; the recovery is visible in Stats.
func TestWorkerKilledMidRun(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	kill := killAt(5)
	rep, err := Loopback(4, Job{Spec: spec, Inputs: inputs}, Options{}, kill, kill, kill, kill)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/worker-killed", serial, rep)
	if rep.Stats == nil || rep.Stats.Recoveries < 1 {
		t.Fatalf("worker death not recorded: %+v", rep.Stats)
	}
	if rep.Stats.Recovery.RequeuedBatches < 1 {
		t.Fatalf("the killed batch was not re-queued: %+v", rep.Stats.Recovery)
	}
	if rep.Stats.Batches < minBatches {
		t.Fatalf("%d batches, below the depth floor %d", rep.Stats.Batches, minBatches)
	}
}

// TestAllWorkersLost: with every worker dead and the rejoin grace
// window expired, the job cannot finish — the coordinator reports the
// loss instead of hanging.
func TestAllWorkersLost(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	inj := fault.NewInjector(1, fault.SingleCrash(0, 2), 1<<20)
	kill := func(batchID int64) { inj.Point(0) }
	opts := Options{HeartbeatEvery: 20 * time.Millisecond, RejoinGrace: 150 * time.Millisecond}
	_, err := Loopback(1, Job{Spec: spec, Inputs: []int64{0, 1}}, opts, kill)
	if !errors.Is(err, ErrAllWorkersLost) {
		t.Fatalf("err = %v, want ErrAllWorkersLost", err)
	}
}

// holdBatch is how long interruptAt's hook keeps the batch it
// interrupts at unacknowledged: the coordinator takes the interrupt
// long before, so the snapshot holds that batch's items.
const holdBatch = 100 * time.Millisecond

// interruptAt returns opts with an Interrupt channel and the worker
// batch hook that closes it when the cluster's k-th batch reaches a
// worker, then holds that batch for holdBatch.  The coordinator
// therefore writes its final snapshot with batch k outstanding: mid-
// vector.  Install the hook on every worker: which worker gets batch k
// is timing.
func interruptAt(opts Options, k int64) (Options, func(int64)) {
	intr := make(chan struct{})
	opts.Interrupt = intr
	var n atomic.Int64
	return opts, func(int64) {
		if n.Add(1) == k {
			close(intr)
			time.Sleep(holdBatch)
		}
	}
}

// checkpointFrontier loads the checkpoint opts names into a fresh
// coordinator for job and returns its vector cursor and the number of
// frontier items it holds (queued plus in-flight): a non-empty
// frontier proves the snapshot was cut mid-vector.
func checkpointFrontier(t *testing.T, job Job, opts Options) (vecIdx, frontier int) {
	t.Helper()
	co, err := newCoord(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := co.tryResume(); !ok || err != nil {
		t.Fatalf("checkpoint does not load: %v, %v", ok, err)
	}
	return co.vecIdx, len(co.vec.queue)
}

// TestCheckpointKillResume: a run interrupted mid-vector (checkpoint
// written, valency.ErrInterrupted) resumes from the snapshot and
// finishes with the serial verdict.  The checkpoint file is removed on
// success.
func TestCheckpointKillResume(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := zoo.Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{CheckpointPath: ckpt, CheckpointEvery: 4}

	first, stop := interruptAt(opts, 20) // < minBatches
	_, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, first, stop, stop)
	if !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("err = %v, want valency.ErrInterrupted", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after the interrupt: %v", err)
	}
	if _, n := checkpointFrontier(t, Job{Spec: spec, Inputs: inputs}, opts); n == 0 {
		t.Fatal("interrupt checkpoint holds an empty frontier: not mid-vector")
	}

	rep, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/resumed", serial, rep)
	if rep.Stats == nil || rep.Stats.Checkpoints < 1 {
		t.Fatalf("resume lost the checkpoint counters: %+v", rep.Stats)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint not removed after success: %v", err)
	}
}

// TestCheckpointResumeAllInputs: interrupt and resume mid all-vectors
// sweep, inside its second vector; the aggregate still matches
// CheckAllInputs.  cas n = 2's first vector has 6 configurations, so it
// takes at most 6 batches; its second has BFS depth 4, so it takes at
// least 5.  The seventh batch is therefore always inside the second
// vector and never its last.
func TestCheckpointResumeAllInputs(t *testing.T) {
	spec := ProtoSpec{Name: "cas", N: 2}
	proto, _ := zoo.Resolve(spec)
	serial := valency.CheckAllInputs(proto, 2, valency.Options{})

	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{CheckpointPath: ckpt, CheckpointEvery: 2}
	first, stop := interruptAt(opts, 7)
	if _, err := Loopback(2, Job{Spec: spec, AllInputs: true}, first, stop, stop); !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("err = %v, want valency.ErrInterrupted", err)
	}
	if vec, n := checkpointFrontier(t, Job{Spec: spec, AllInputs: true}, opts); vec != 1 || n == 0 {
		t.Fatalf("interrupt checkpoint at vector %d with %d frontier items, want mid-vector 1", vec, n)
	}
	rep, err := Loopback(2, Job{Spec: spec, AllInputs: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "cas/all-inputs-resumed", serial, rep)
}

// TestCheckpointJobMismatch: a snapshot from one job must not resume a
// different one; the refusal matches frame.ErrCannotResume, and the
// snapshot still resumes its own job to the serial verdict.
func TestCheckpointJobMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{CheckpointPath: ckpt, CheckpointEvery: 2}
	job := Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}
	first, stop := interruptAt(opts, 6) // < minBatches
	if _, err := Loopback(2, job, first, stop, stop); !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("err = %v, want valency.ErrInterrupted", err)
	}
	_, err := Loopback(2, Job{Spec: ProtoSpec{Name: "cas", N: 2}, Inputs: []int64{0, 1}}, opts)
	if err == nil || !strings.Contains(err.Error(), "different job") || !errors.Is(err, frame.ErrCannotResume) {
		t.Fatalf("err = %v, want job-mismatch rejection matching frame.ErrCannotResume", err)
	}
	proto, _ := zoo.Resolve(job.Spec)
	rep, err := Loopback(2, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/own-job-resume", valency.Check(proto, job.Inputs, valency.Options{}), rep)
}

// TestBudgetIncomplete: a starved budget yields an honest incomplete
// report, like the local engines.
func TestBudgetIncomplete(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	rep, err := Loopback(2, Job{Spec: spec, Inputs: []int64{0, 1}},
		Options{Valency: valency.Options{MaxConfigs: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("budget 100 reported complete")
	}
	if rep.Violation != nil {
		t.Fatalf("unexpected violation: %v", rep.Violation)
	}
	if rep.Configs < 100 {
		t.Fatalf("explored only %d configs under budget 100", rep.Configs)
	}
}

// TestWireRoundTrip: every message survives encode/decode, and the
// frame layer rejects corruption and truncation.
func TestWireRoundTrip(t *testing.T) {
	jm := jobMsg{
		Spec:       ProtoSpec{Name: "flood-mixed", N: 2, R: 3, Rounds: -4, Seed: 99},
		Inputs:     []int64{0, 1, -7},
		NoSymmetry: true,
		Crash:      []int{-1, 2},
		Workers:    3,
		Epoch:      5,
	}
	gotJob, err := decodeJob(jm.encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotJob.Spec != jm.Spec || gotJob.NoSymmetry != jm.NoSymmetry ||
		len(gotJob.Inputs) != 3 || gotJob.Inputs[2] != -7 ||
		len(gotJob.Crash) != 2 || gotJob.Crash[0] != -1 ||
		gotJob.Workers != 3 || gotJob.Epoch != 5 {
		t.Fatalf("job round trip: %+v", gotJob)
	}

	bm := batchMsg{ID: 7, Items: []item{{id: 42, sched: []byte{1, 2, 3}}, {id: 9}}}
	gotBatch, err := decodeBatch(bm.encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotBatch.ID != 7 || len(gotBatch.Items) != 2 || gotBatch.Items[0].id != 42 ||
		string(gotBatch.Items[0].sched) != string([]byte{1, 2, 3}) {
		t.Fatalf("batch round trip: %+v", gotBatch)
	}

	dm := doneMsg{
		ID: 7, Generated: 12, Violated: true, Decisions: []int64{0, 1},
		Emits: []emit{{from: 42, key: []byte("k"), sched: []byte("s")}},
	}
	gotDone, err := decodeDone(dm.encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotDone.ID != 7 || gotDone.Generated != 12 || !gotDone.Violated ||
		len(gotDone.Decisions) != 2 || len(gotDone.Emits) != 1 ||
		gotDone.Emits[0].from != 42 || string(gotDone.Emits[0].key) != "k" {
		t.Fatalf("done round trip: %+v", gotDone)
	}

	var buf strings.Builder
	if err := frame.Write(&buf, msgDone, dm.encode()); err != nil {
		t.Fatal(err)
	}
	raw := []byte(buf.String())
	typ, payload, err := frame.Read(strings.NewReader(string(raw)))
	if err != nil || typ != msgDone {
		t.Fatalf("frame read: %v", err)
	}
	if _, err := decodeDone(payload); err != nil {
		t.Fatal(err)
	}
	raw[7] ^= 0xFF // corrupt one payload byte
	if _, _, err := frame.Read(strings.NewReader(string(raw))); err == nil {
		t.Error("corrupted frame accepted")
	}
	if _, _, err := frame.Read(strings.NewReader(string(raw[:len(raw)-3]))); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := decodeDone(payload[:2]); err == nil {
		t.Error("truncated payload decoded")
	}
}

// TestValidate: unsupported configurations are rejected up front.
func TestValidate(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	if _, err := Loopback(1, Job{Spec: spec}, Options{}); err == nil {
		t.Error("job without inputs accepted")
	}
	if _, err := Loopback(1, Job{Spec: ProtoSpec{Name: "nope"}, Inputs: []int64{0}}, Options{}); err == nil {
		t.Error("unresolvable spec accepted")
	}
}
