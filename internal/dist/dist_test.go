package dist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/valency"
)

// zooSpecs is the full protocol zoo at n=2 as wire specs — the same
// families the parallel/serial differential uses (diffProtocols), so
// the distributed engine is held to the identical contract: clean upper
// bounds, flawed floods, and a generated scan machine.
func zooSpecs() []ProtoSpec {
	return []ProtoSpec{
		{Name: "cas", N: 2},
		{Name: "sticky", N: 2},
		{Name: "tas-2", N: 2},
		{Name: "swap-2", N: 2},
		{Name: "fetch&add-2", N: 2},
		{Name: "fetch&inc-2", N: 2},
		{Name: "register-naive-2", N: 2},
		{Name: "counter-walk", N: 2},
		{Name: "packed-fetch&add", N: 2},
		{Name: "register-consensus", N: 2, Rounds: 2},
		{Name: "flood-registers", N: 2, R: 2},
		{Name: "flood-swap", N: 2, R: 2},
		{Name: "flood-mixed", N: 2, R: 2},
		{Name: "scan-machine", N: 2, R: 1, Seed: 1},
	}
}

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
	for _, spec := range zooSpecs() {
		proto, err := Resolve(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		inputs := []int64{0, 1}
		serial := valency.Check(proto, inputs, valency.Options{})
		rep, err := Loopback(4, Job{Spec: spec, Inputs: inputs}, Options{Shards: 16})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		requireSameReport(t, spec.Name, serial, rep)
		if rep.Stats == nil || rep.Stats.Shards != 16 || rep.Stats.Workers != 4 {
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
		proto, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		serial := valency.CheckAllInputs(proto, 2, valency.Options{})
		rep, err := Loopback(4, Job{Spec: spec, AllInputs: true}, Options{Shards: 16})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		requireSameReport(t, spec.Name+"/all-inputs", serial, rep)
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
		proto, err := Resolve(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []int64{0, 1}
		vopts := valency.Options{Crash: tc.crash}
		serial := valency.Check(proto, inputs, vopts)
		rep, err := Loopback(3, Job{Spec: tc.spec, Inputs: inputs}, Options{Shards: 8, Valency: vopts})
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		requireSameReport(t, tc.spec.Name+"/crash", serial, rep)
	}
}

// TestWorkerKilledMidRun: a fault-injector hook murders worker 0 on its
// fifth batch (panic mid-batch, effects unsent).  The coordinator must
// re-queue the lost batches, reassign the dead worker's shards, and
// still produce the serial verdict; the recovery is visible in Stats.
func TestWorkerKilledMidRun(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	inj := fault.NewInjector(1, fault.SingleCrash(0, 5), 1<<20)
	kill := func(batchID int64) { inj.Point(0) }
	rep, err := Loopback(4, Job{Spec: spec, Inputs: inputs}, Options{Shards: 16}, kill)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "counter-walk/worker-killed", serial, rep)
	if rep.Stats == nil || rep.Stats.Recoveries < 1 {
		t.Fatalf("worker death not recorded: %+v", rep.Stats)
	}
}

// TestAllWorkersLost: with every worker dead and the rejoin grace
// window expired, the job cannot finish — the coordinator reports the
// loss instead of hanging.
func TestAllWorkersLost(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	inj := fault.NewInjector(1, fault.SingleCrash(0, 2), 1<<20)
	kill := func(batchID int64) { inj.Point(0) }
	opts := Options{Shards: 4, HeartbeatEvery: 20 * time.Millisecond, RejoinGrace: 150 * time.Millisecond}
	_, err := Loopback(1, Job{Spec: spec, Inputs: []int64{0, 1}}, opts, kill)
	if !errors.Is(err, ErrAllWorkersLost) {
		t.Fatalf("err = %v, want ErrAllWorkersLost", err)
	}
}

// TestCheckpointKillResume: a run aborted mid-flight (checkpoint
// written, ErrAborted) resumes from the snapshot and finishes with the
// serial verdict.  The checkpoint file is removed on success.
func TestCheckpointKillResume(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	proto, _ := Resolve(spec)
	inputs := []int64{0, 1}
	serial := valency.Check(proto, inputs, valency.Options{})

	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{Shards: 8, CheckpointPath: ckpt, CheckpointEvery: 4}

	abort := opts
	abort.AbortAfterBatches = 20
	_, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, abort)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after abort: %v", err)
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

// TestCheckpointResumeAllInputs: abort and resume mid all-vectors
// sweep; the aggregate still matches CheckAllInputs.
func TestCheckpointResumeAllInputs(t *testing.T) {
	spec := ProtoSpec{Name: "cas", N: 2}
	proto, _ := Resolve(spec)
	serial := valency.CheckAllInputs(proto, 2, valency.Options{})

	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{Shards: 8, CheckpointPath: ckpt, CheckpointEvery: 2}
	abort := opts
	abort.AbortAfterBatches = 6
	if _, err := Loopback(2, Job{Spec: spec, AllInputs: true}, abort); !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted")
	}
	rep, err := Loopback(2, Job{Spec: spec, AllInputs: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "cas/all-inputs-resumed", serial, rep)
}

// TestCheckpointJobMismatch: a snapshot from one job must not resume a
// different one.
func TestCheckpointJobMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{Shards: 8, CheckpointPath: ckpt, CheckpointEvery: 2}
	abort := opts
	abort.AbortAfterBatches = 6
	if _, err := Loopback(2, Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}, abort); !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted")
	}
	_, err := Loopback(2, Job{Spec: ProtoSpec{Name: "cas", N: 2}, Inputs: []int64{0, 1}}, opts)
	if err == nil || !strings.Contains(err.Error(), "different job") {
		t.Fatalf("err = %v, want job-mismatch rejection", err)
	}
}

// TestBudgetIncomplete: a starved budget yields an honest incomplete
// report, like the local engines.
func TestBudgetIncomplete(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	rep, err := Loopback(2, Job{Spec: spec, Inputs: []int64{0, 1}},
		Options{Shards: 4, Valency: valency.Options{MaxConfigs: 100}})
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

// TestRegistry: spec resolution is total over the zoo, rejects unknown
// names, and machine coordinates round-trip through MachineSpec.
func TestRegistry(t *testing.T) {
	for _, spec := range zooSpecs() {
		if _, err := Resolve(spec); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if _, err := Resolve(ProtoSpec{Name: "no-such-protocol"}); err == nil {
		t.Error("unknown protocol resolved")
	}
	if _, err := Resolve(ProtoSpec{Name: "machine:test&set:2:0"}); err == nil {
		t.Error("machine id 0 resolved")
	}
	if _, err := Resolve(ProtoSpec{Name: "machine:quux:1:1"}); err == nil {
		t.Error("unknown machine type resolved")
	}
	proto, err := Resolve(ProtoSpec{Name: "machine:test&set:2:137"})
	if err != nil {
		t.Fatal(err)
	}
	if got := proto.Name(); got != "machine(test&set,#137)" {
		t.Errorf("machine name %q", got)
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
		Shards:     16,
	}
	gotJob, err := decodeJob(jm.encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotJob.Spec != jm.Spec || gotJob.NoSymmetry != jm.NoSymmetry ||
		len(gotJob.Inputs) != 3 || gotJob.Inputs[2] != -7 ||
		len(gotJob.Crash) != 2 || gotJob.Crash[0] != -1 ||
		gotJob.Workers != 3 || gotJob.Shards != 16 {
		t.Fatalf("job round trip: %+v", gotJob)
	}

	bm := batchMsg{ID: 7, Items: []item{{gid: 42, sched: []byte{1, 2, 3}}, {gid: 9}}}
	gotBatch, err := decodeBatch(bm.encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotBatch.ID != 7 || len(gotBatch.Items) != 2 || gotBatch.Items[0].gid != 42 ||
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
	if err := writeFrame(&buf, msgDone, dm.encode()); err != nil {
		t.Fatal(err)
	}
	raw := []byte(buf.String())
	typ, payload, err := readFrame(strings.NewReader(string(raw)))
	if err != nil || typ != msgDone {
		t.Fatalf("frame read: %v", err)
	}
	if _, err := decodeDone(payload); err != nil {
		t.Fatal(err)
	}
	raw[7] ^= 0xFF // corrupt one payload byte
	if _, _, err := readFrame(strings.NewReader(string(raw))); err == nil {
		t.Error("corrupted frame accepted")
	}
	if _, _, err := readFrame(strings.NewReader(string(raw[:len(raw)-3]))); err == nil {
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
