package valency_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"randsync/internal/protocol"
	"randsync/internal/valency"
)

// TestCheckSpillInterruptResume: an interrupt mid-exploration stops the
// run at a checkpoint with ErrInterrupted, and a resume finishes with
// exactly the uninterrupted verdict — the seam the service daemon's
// graceful drain rides on.
func TestCheckSpillInterruptResume(t *testing.T) {
	proto := protocol.NewCounterWalk(3)
	inputs := []int64{0, 1, 1}
	want := valency.Check(proto, inputs, valency.Options{})

	for _, after := range []int64{1, 200} {
		dir := t.TempDir()
		var polls atomic.Int64
		opts := valency.Options{
			SpillDir:             dir,
			SpillCheckpointEvery: 64,
			MaxConfigs:           failFast(want),
			Interrupt:            func() bool { return polls.Add(1) > after },
		}
		_, err := valency.CheckSpill(proto, inputs, opts)
		if !errors.Is(err, valency.ErrInterrupted) {
			t.Fatalf("after=%d: err = %v, want ErrInterrupted", after, err)
		}

		opts.Interrupt = nil
		opts.SpillResume = true
		rep, err := valency.CheckSpill(proto, inputs, opts)
		if err != nil {
			t.Fatalf("after=%d: resume: %v", after, err)
		}
		sameVerdict(t, "resumed", rep, want)
	}
}

// TestCheckSpillInterruptWithoutCheckpointing: with checkpointing
// disabled there is no durable cut to drain to; the interrupt still
// stops the run, and the honest answer is an incomplete report.
func TestCheckSpillInterruptWithoutCheckpointing(t *testing.T) {
	proto := protocol.NewCounterWalk(3)
	rep, err := valency.CheckSpill(proto, []int64{0, 1, 1}, valency.Options{
		SpillDir:             t.TempDir(),
		SpillCheckpointEvery: -1,
		Interrupt:            func() bool { return true },
	})
	if !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if rep != nil && rep.Complete {
		t.Fatalf("interrupted run reported complete")
	}
}

// TestCheckSpillInterruptNeverFires: a non-nil Interrupt that stays
// false must not perturb the verdict.
func TestCheckSpillInterruptNeverFires(t *testing.T) {
	proto := protocol.NewSwap2()
	inputs := []int64{1, 0}
	want := valency.Check(proto, inputs, valency.Options{})
	rep, err := valency.CheckSpill(proto, inputs, valency.Options{
		SpillDir:   t.TempDir(),
		MaxConfigs: failFast(want),
		Interrupt:  func() bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, "uninterrupted", rep, want)
}

// TestCheckAllInputsSpillInterruptResume: the interrupt seam composes
// with the all-vectors sweep — the cut can land inside any vector, and
// the resumed sweep still aggregates the serial verdict.
func TestCheckAllInputsSpillInterruptResume(t *testing.T) {
	proto := protocol.NewCounterWalk(2)
	want := valency.CheckAllInputs(proto, 2, valency.Options{})

	dir := t.TempDir()
	var polls atomic.Int64
	opts := valency.Options{
		SpillDir:             dir,
		SpillCheckpointEvery: 16,
		MaxConfigs:           failFast(want),
		Interrupt:            func() bool { return polls.Add(1) > 40 },
	}
	_, err := valency.CheckAllInputsSpill(proto, 2, opts)
	if !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	opts.Interrupt = nil
	opts.SpillResume = true
	rep, err := valency.CheckAllInputsSpill(proto, 2, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	sameVerdict(t, "resumed sweep", rep, want)
}

// TestCheckSpillResumeKeepsCallerState: a checkpoint carries the
// caller's state across the cut, so a resumed run's successor count is
// the uninterrupted run's, not just the part explored after the resume.
func TestCheckSpillResumeKeepsCallerState(t *testing.T) {
	proto := protocol.NewCounterWalk(3)
	inputs := []int64{0, 1, 1}
	whole, err := valency.CheckSpill(proto, inputs, valency.Options{SpillDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var polls atomic.Int64
	opts := valency.Options{
		SpillDir:             dir,
		Workers:              2,
		SpillCheckpointEvery: 64,
		Interrupt:            func() bool { return polls.Add(1) > 200 },
	}
	if _, err := valency.CheckSpill(proto, inputs, opts); !errors.Is(err, valency.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	opts.Interrupt = nil
	opts.SpillResume = true
	rep, err := valency.CheckSpill(proto, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stats.Spill.Resumed {
		t.Fatal("second run did not resume")
	}
	if rep.Stats.Generated != whole.Stats.Generated {
		t.Fatalf("resumed run generated %d successors, uninterrupted %d", rep.Stats.Generated, whole.Stats.Generated)
	}
}
