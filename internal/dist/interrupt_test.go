package dist

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// TestLoopbackInterruptResume: closing Options.Interrupt mid-run makes
// the coordinator write a final checkpoint and return ErrInterrupted;
// re-running the same job resumes from that snapshot and finishes with
// the serial verdict — the seam behind distcheck's SIGINT handling and
// the service daemon's graceful drain.
func TestLoopbackInterruptResume(t *testing.T) {
	spec := ProtoSpec{Name: "counter-walk", N: 2}
	inputs := []int64{0, 1}
	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	opts := Options{Shards: 8, CheckpointPath: ckpt, CheckpointEvery: 4}

	intr := make(chan struct{})
	var once sync.Once
	first := opts
	first.Interrupt = intr
	_, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, first, func(batchID int64) {
		once.Do(func() { close(intr) })
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("first run: err = %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("interrupt left no checkpoint: %v", err)
	}

	proto, err := zoo.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := valency.Check(proto, inputs, valency.Options{})

	rep, err := Loopback(2, Job{Spec: spec, Inputs: inputs}, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.Complete != want.Complete || rep.Configs != want.Configs || rep.Livelock != want.Livelock {
		t.Fatalf("resumed verdict (complete=%v configs=%d) != serial (complete=%v configs=%d)",
			rep.Complete, rep.Configs, want.Complete, want.Configs)
	}
	if rep.Stats == nil || rep.Stats.Recovery == nil || rep.Stats.Recovery.CheckpointResumes < 1 {
		t.Fatalf("resume not recorded in recovery stats: %+v", rep.Stats)
	}
	// Successful completion removes the snapshot, as everywhere else.
	if _, err := os.Stat(ckpt); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint not removed after completion: %v", err)
	}
}

// TestLoopbackInterruptBeforeStart: an interrupt already pending when
// the cluster assembles aborts cleanly before any work dispatches.
func TestLoopbackInterruptBeforeStart(t *testing.T) {
	intr := make(chan struct{})
	close(intr)
	opts := Options{Shards: 8, Interrupt: intr}
	_, err := Loopback(2, Job{Spec: ProtoSpec{Name: "counter-walk", N: 2}, Inputs: []int64{0, 1}}, opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
