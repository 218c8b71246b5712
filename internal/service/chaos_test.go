package service

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/frame"
)

// newServerChaos opens a server over a disk-chaos filesystem, retrying
// the handful of startup operations (mkdir, job-record reload) that an
// injected fault can fail; a daemon restarting onto a flaky disk keeps
// trying too.
func newServerChaos(t testing.TB, cfg Config) *Server {
	t.Helper()
	var s *Server
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if s, err = New(cfg); err == nil {
			return s
		}
	}
	t.Fatalf("server failed to start under chaos: %v", err)
	return nil
}

// artifactChaos fetches an artifact through injected read faults.
func artifactChaos(t testing.TB, s *Server, hash string) []byte {
	t.Helper()
	var doc []byte
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if doc, err = s.Artifact(hash); err == nil {
			return doc
		}
	}
	t.Fatalf("artifact %s unreadable under chaos: %v", hash, err)
	return nil
}

// TestServiceChaosSoak is the service-level acceptance soak: seeded
// disk faults under every durable write, an engine kill (graceful
// restart drains every running engine to its checkpoint mid-soak), a
// deadline job and a cancelled job, all across two tenants.  The hard contract: every job ends in exactly one honest
// terminal state, every done verdict is byte-identical to a direct
// serial check, the deadline and cancel jobs land in their states, and
// transient failures heal through checkpoint-resumed retries.
func TestServiceChaosSoak(t *testing.T) {
	seeds := []uint64{3, 17}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			// Low per-mille rates on every detectable fault class.
			// ReadCorrupt stays off: silent bit rot is a different
			// failure mode (store tamper tests own it) and cannot heal
			// by retrying.
			chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{
				Seed: seed, WriteErr: 3, ShortWrite: 2, SyncErr: 3, OpenErr: 2, ReadErr: 3,
			})
			cfg := Config{
				DataDir: dir, FS: chaos, MaxActive: 2, Workers: 2,
				SpillCheckpointEvery: 64,
				RetryMax:             25, RetryBase: time.Millisecond, RetryCap: 50 * time.Millisecond,
				RetrySeed: seed,
			}
			s := newServerChaos(t, cfg)
			closed := false
			defer func() {
				if !closed {
					s.Close()
				}
			}()

			// The workload: fast single-vector and all-inputs jobs
			// across two tenants, one deliberately slow job per
			// lifecycle drill.
			finish := []JobSpec{
				testSpec("alice", 1),
				testSpec("alice", 2),
				{Tenant: "alice", Protocol: "cas", N: 2},
				testSpec("bob", 1),
				{Tenant: "bob", Protocol: "counter-walk", N: 2, AllInputs: true},
			}
			deadlineJob := slowSpec("alice", 101)
			deadlineJob.DeadlineSeconds = 1
			cancelJob := slowSpec("bob", 102)

			// Submits retry through injected faults on the job-record
			// write; a quota would never trip here (no caps configured).
			submit := func(spec JobSpec) string {
				var id string
				var err error
				for attempt := 0; attempt < 10; attempt++ {
					var st JobStatus
					if st, _, err = s.Submit(spec); err == nil {
						id = st.ID
						return id
					}
				}
				t.Fatalf("submit under chaos: %v", err)
				return ""
			}
			var finishIDs []string
			for _, spec := range finish {
				finishIDs = append(finishIDs, submit(spec))
			}
			deadlineID := submit(deadlineJob)
			cancelID := submit(cancelJob)

			// Cancel storm: cancel the slow job once it is running (or
			// still queued — both paths are legal).
			go func() {
				time.Sleep(150 * time.Millisecond)
				s.Cancel(cancelID)
			}()

			// Engine kill mid-soak: drain every running engine to its
			// checkpoint, then restart over the same data directory.
			time.Sleep(400 * time.Millisecond)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = newServerChaos(t, cfg)

			// Every job must reach exactly one honest terminal state.
			for i, id := range finishIDs {
				got := waitDone(t, s, id)
				if got.State != StateDone {
					t.Fatalf("job %d (%s): state %s, error %q, lastFailure %q",
						i, id, got.State, got.Error, got.LastFailure)
				}
				doc := artifactChaos(t, s, got.Artifact)
				if want := serialDoc(t, finish[i]); !bytes.Equal(doc, want) {
					t.Fatalf("job %d (%s): verdict differs from serial after %d retries:\n%s\nvs\n%s",
						i, id, got.Retries, doc, want)
				}
			}
			gotDeadline := waitDone(t, s, deadlineID)
			if gotDeadline.State != StateTimeout {
				t.Fatalf("deadline job: state %s (%s), want timeout",
					gotDeadline.State, gotDeadline.Error)
			}
			gotCancel := waitDone(t, s, cancelID)
			// The cancel can race the restart: if the first daemon
			// generation died before the cancel landed, the job simply
			// runs to completion in the second — an honest outcome, but
			// the common path must be cancelled, so require it unless
			// the job finished first.
			if gotCancel.State != StateCancelled && gotCancel.State != StateDone {
				t.Fatalf("cancelled job: state %s (%s), want cancelled (or done on a lost race)",
					gotCancel.State, gotCancel.Error)
			}

			// Seq stamps are unique: exactly one terminal transition per
			// job, no double completion.
			seen := make(map[int64]string)
			for _, st := range s.Jobs() {
				if !TerminalState(st.State) {
					t.Fatalf("job %s not terminal at soak end: %s", st.ID, st.State)
				}
				if st.Seq != 0 {
					if prev, dup := seen[st.Seq]; dup {
						t.Fatalf("jobs %s and %s share completion seq %d", prev, st.ID, st.Seq)
					}
					seen[st.Seq] = st.ID
				}
			}

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			closed = true
			t.Logf("seed %d: %d disk faults injected over %d ops", seed, chaos.Faults(), chaos.Ops())
		})
	}
}
