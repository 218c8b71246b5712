package service

import (
	"errors"
	iofs "io/fs"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"randsync/internal/frame"
)

// flakyFS fails spill-file creation while a fault window is armed.  The
// *fs.PathError it returns is exactly what a real transient disk fault
// produces, so the service classifies the run failure as transient and
// retries; everything outside the spill tree (job records, artifacts)
// stays healthy.
type flakyFS struct {
	frame.FS
	window atomic.Int64 // failing Create calls remaining
}

func (f *flakyFS) Create(name string) (frame.File, error) {
	if strings.Contains(name, "spill") && f.window.Add(-1) >= 0 {
		return nil, &iofs.PathError{Op: "create", Path: name, Err: errors.New("flaky disk window")}
	}
	return f.FS.Create(name)
}

// BenchmarkRetryOverhead prices the classified-retry machinery: the
// same job run through a healthy daemon and through one whose disk
// fails every spill write for a window of 6 creations per job.  A tiny
// MemBudget forces a visited-set eviction, the engine's own 4-attempt
// IO retry exhausts inside the window, the run fails transiently, and
// the service re-executes it after backoff — exactly one classified
// retry per iteration.  The acceptance invariant is config-count
// equality between the two paths — a retry may cost time, never change
// the verdict.
func BenchmarkRetryOverhead(b *testing.B) {
	for _, tc := range []struct {
		name   string
		window int64
	}{
		{"path=clean", 0},
		{"path=retry", 6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			disk := &flakyFS{FS: frame.OS{}}
			s, err := New(Config{
				DataDir: b.TempDir(), FS: disk, MaxActive: 1, Workers: 1,
				SpillCheckpointEvery: 1,
				RetryMax:             8, RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			c := &Client{Base: "http://checkd", HTTP: Inproc(Handler(s))}
			var configs, retries int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := JobSpec{Tenant: "bench", Protocol: "counter-walk", N: 2, Seed: uint64(i + 1), MemBudget: 4096}
				disk.window.Store(tc.window)
				sr, err := c.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				st, err := c.Events(sr.Job.ID, nil)
				if err != nil {
					b.Fatal(err)
				}
				if st == nil || st.State != StateDone {
					b.Fatalf("job ended %+v, want done", st)
				}
				configs = st.Configs
				retries += st.Retries
			}
			b.StopTimer()
			if tc.window > 0 && retries == 0 {
				b.Fatal("fault window armed but no job retried")
			}
			b.ReportMetric(float64(configs), "configs")
			b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
		})
	}
}
