package service

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/frame"
)

// parkFS is a frame.FS whose Sync can be made to park: arm(match) holds
// the next Sync of a file whose path contains match until the returned
// gate is opened.  It is how the tests below stand inside one tenant's
// fsync and look at what everybody else can still do.
type parkFS struct {
	frame.FS
	mu    sync.Mutex
	gate  *gate
	gates []*gate
}

type gate struct {
	match   string
	parked  chan struct{} // closed when a Sync has parked on the gate
	release chan struct{}
	once    sync.Once
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (p *parkFS) arm(match string) *gate {
	g := &gate{match: match, parked: make(chan struct{}), release: make(chan struct{})}
	p.mu.Lock()
	p.gate = g
	p.gates = append(p.gates, g)
	p.mu.Unlock()
	return g
}

// openAll releases every gate ever armed, so a failing test still lets
// the daemon drain.
func (p *parkFS) openAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gate = nil
	for _, g := range p.gates {
		g.open()
	}
}

func (p *parkFS) Create(name string) (frame.File, error) {
	f, err := p.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &parkFile{File: f, fs: p, name: name}, nil
}

func (p *parkFS) Open(name string) (frame.File, error) {
	f, err := p.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &parkFile{File: f, fs: p, name: name}, nil
}

type parkFile struct {
	frame.File
	fs   *parkFS
	name string
}

func (f *parkFile) Sync() error {
	f.fs.mu.Lock()
	g := f.fs.gate
	if g != nil && strings.Contains(f.name, g.match) {
		f.fs.gate = nil
	} else {
		g = nil
	}
	f.fs.mu.Unlock()
	if g != nil {
		close(g.parked)
		<-g.release
	}
	return f.File.Sync()
}

// within runs fn on its own goroutine and fails the test if it has not
// returned in time: a lock held across a parked fsync shows up as a
// named timeout, not as a hung test binary.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: still blocked after 20s", what)
	}
}

func awaitParked(t *testing.T, g *gate) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(20 * time.Second):
		t.Fatalf("no fsync of a %q path arrived within 20s", g.match)
	}
}

// TestNoFsyncUnderLock pins the lock discipline: while tenant alice's
// queued record, her artifact and her done record are each parked inside
// their fsync in turn, tenant bob's Submit, Job, Jobs, healthz, event
// stream and Artifact GET of another document all complete — so neither
// Server.mu nor Store.mu is held across the disk — and a duplicate
// Submit of alice's in-flight job does not return until her record
// lands.
func TestNoFsyncUnderLock(t *testing.T) {
	disk := &parkFS{FS: frame.OS{}}
	s, err := New(Config{DataDir: t.TempDir(), FS: disk, MaxActive: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer disk.openAll()
	c := &Client{Base: "http://checkd", HTTP: Inproc(Handler(s))}

	// alice's engine waits at the door until the test lets it in, so each
	// park is armed before the write it is meant to catch.
	enter := make(chan struct{})
	s.testHook = func(spec *JobSpec) {
		if spec.Tenant == "alice" {
			<-enter
		}
	}

	specA := JobSpec{Tenant: "alice", Protocol: "cas", N: 2}
	if err := specA.Validate(); err != nil { // normalizes, which the ID depends on
		t.Fatal(err)
	}
	idA := specA.ID()
	hashA := ArtifactHash(serialDoc(t, specA))

	// bob already has a finished job: its artifact is "a different hash".
	first, err := c.Submit(testSpec("bob", 1))
	if err != nil {
		t.Fatal(err)
	}
	bobDone := waitDone(t, s, first.Job.ID)
	if bobDone.State != StateDone || bobDone.Artifact == hashA {
		t.Fatalf("bob's warm-up job: %+v", bobDone)
	}

	// everythingElse is what the rest of the daemon must still do while
	// one of alice's fsyncs is parked: a whole job for bob, over the API.
	everythingElse := func(phase string, seed uint64) {
		within(t, "bob's traffic while alice's "+phase+" fsync is parked", func() {
			sr, err := c.Submit(testSpec("bob", seed))
			if err != nil || sr.Duplicate {
				t.Errorf("%s: bob's submit: dup=%v err=%v", phase, sr != nil && sr.Duplicate, err)
				return
			}
			if _, ok := s.Job(sr.Job.ID); !ok {
				t.Errorf("%s: bob's acknowledged job is not in the table", phase)
			}
			if _, err := c.Jobs(); err != nil {
				t.Errorf("%s: list: %v", phase, err)
			}
			if _, err := c.Health(); err != nil {
				t.Errorf("%s: healthz: %v", phase, err)
			}
			if last, err := c.Events(sr.Job.ID, nil); err != nil || last == nil || last.State != StateDone {
				t.Errorf("%s: bob's event stream ended at %+v, %v", phase, last, err)
			}
			if _, err := c.Artifact(bobDone.Artifact); err != nil {
				t.Errorf("%s: artifact of another hash: %v", phase, err)
			}
		})
	}

	// 1. The queued record.
	g := disk.arm(filepath.Join("jobs", idA))
	type submitted struct {
		st  JobStatus
		dup bool
		err error
	}
	firstA, dupA := make(chan submitted, 1), make(chan submitted, 1)
	go func() {
		st, dup, err := s.Submit(specA)
		firstA <- submitted{st, dup, err}
	}()
	awaitParked(t, g)
	go func() {
		st, dup, err := s.Submit(specA)
		dupA <- submitted{st, dup, err}
	}()
	everythingElse("queued", 2)
	if _, ok := s.Job(idA); ok {
		t.Fatal("alice's job is visible before its queued record is on disk")
	}
	select {
	case r := <-firstA:
		t.Fatalf("alice's submit returned with its record's fsync still parked: %+v", r)
	case r := <-dupA:
		t.Fatalf("the duplicate submit returned with the first copy's fsync still parked: %+v", r)
	default:
	}
	g.open()
	within(t, "alice's submits after the release", func() {
		if r := <-firstA; r.err != nil || r.dup {
			t.Errorf("alice's submit: %+v", r)
		}
		if r := <-dupA; r.err != nil || !r.dup || r.st.ID != idA {
			t.Errorf("alice's duplicate submit: %+v", r)
		}
	})

	// 2. The artifact.  The running record is written behind the
	// dispatch; let it land first so the park catches the artifact.
	within(t, "alice's running record", func() {
		for {
			if st, err := s.readJobRecord(idA); err == nil && st.State == StateRunning {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	g = disk.arm(hashA)
	close(enter)
	awaitParked(t, g)
	everythingElse("artifact", 3)

	// 3. The done record, armed before the artifact is let go.
	gDone := disk.arm(filepath.Join("jobs", idA))
	g.open()
	awaitParked(t, gDone)
	everythingElse("done", 4)
	if st, _ := s.Job(idA); st.State != StateRunning || st.Seq != 0 {
		t.Fatalf("alice's job shows %s (seq %d) before its done record is on disk", st.State, st.Seq)
	}
	gDone.open()
	if st := waitDone(t, s, idA); st.State != StateDone || st.Artifact != hashA {
		t.Fatalf("alice's job ended %+v", st)
	}

	// Five jobs, three records and one document each (bob's seeds differ,
	// and the seed is part of the document).
	p := s.Health().Persist
	if p.RecordWrites+p.RecordSuperseded != 3*5 || p.StorePuts != 5 || p.MaxCommitMicros <= 0 {
		t.Fatalf("persist counters after five jobs: %+v", p)
	}
}

// singleWriterFS fails the test when two writers have one staging file
// open at once — the thing frame.WriteFileAtomic's fixed temp name
// cannot survive.
type singleWriterFS struct {
	frame.FS
	t    *testing.T
	mu   sync.Mutex
	open map[string]bool
}

func (w *singleWriterFS) Create(name string) (frame.File, error) {
	w.mu.Lock()
	if w.open[name] {
		w.t.Errorf("two writers staging %s at once", name)
	}
	w.open[name] = true
	w.mu.Unlock()
	f, err := w.FS.Create(name)
	if err != nil {
		w.closed(name)
		return nil, err
	}
	return &stagedFile{File: f, fs: w, name: name}, nil
}

func (w *singleWriterFS) closed(name string) {
	w.mu.Lock()
	delete(w.open, name)
	w.mu.Unlock()
}

type stagedFile struct {
	frame.File
	fs   *singleWriterFS
	name string
}

func (f *stagedFile) Close() error {
	f.fs.closed(f.name)
	return f.File.Close()
}

// TestCommitOneWriterPerRecord: many goroutines push transitions of one
// job through the commit path at once.  The staging file is never open
// twice, every snapshot is either written or superseded, and once the
// job settles the record on disk is whole and is the newest state.
func TestCommitOneWriterPerRecord(t *testing.T) {
	disk := &singleWriterFS{FS: frame.OS{}, t: t, open: make(map[string]bool)}
	s, err := New(Config{DataDir: t.TempDir(), FS: disk, Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, _, err := s.Submit(testSpec("alice", 1))
	if err != nil {
		t.Fatal(err)
	}

	const writers, each = 8, 25
	s.mu.Lock()
	j := s.jobs[st.ID]
	base := s.persist
	s.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.mu.Lock()
				j.st.Resumes++
				s.persistLocked(j, nil)
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()

	s.mu.Lock()
	s.settledLocked(st.ID)
	want := j.st
	wrote, superseded := s.persist.writes-base.writes, s.persist.superseded-base.superseded
	s.mu.Unlock()
	if want.Resumes != writers*each {
		t.Fatalf("%d transitions applied, want %d", want.Resumes, writers*each)
	}
	if wrote+superseded != writers*each || wrote == 0 {
		t.Fatalf("%d written + %d superseded, want %d in all", wrote, superseded, writers*each)
	}
	got, err := s.readJobRecord(st.ID)
	if err != nil {
		t.Fatalf("record after the storm: %v", err)
	}
	if got.Resumes != want.Resumes || got.State != want.State {
		t.Fatalf("record holds resumes=%d state=%s, newest is resumes=%d state=%s",
			got.Resumes, got.State, want.Resumes, want.State)
	}
}

// TestCommitCrashSweep kills the disk at every operation ordinal of one
// whole lifecycle of two concurrent jobs — one per tenant, the same
// logical check, so their artifact coalesces — and restarts over what
// survived.  Whatever the cut: every acknowledged submit is in the
// restarted table, no job was or is done without a readable artifact
// and a done record on disk, every job reaches one terminal state with
// a Seq of its own, and every verdict document is the serial one.
func TestCommitCrashSweep(t *testing.T) {
	specs := []JobSpec{testSpec("alice", 1), testSpec("bob", 1)}
	want := serialDoc(t, specs[0])
	config := func(dir string, fsys frame.FS) Config {
		return Config{
			DataDir: dir, FS: fsys, MaxActive: 2, Workers: 1,
			RetryMax: 1, RetryBase: time.Millisecond, RetryCap: time.Millisecond,
		}
	}

	// lifecycle runs both jobs on a disk that dies at operation killAt
	// (0 = never), restarts on a healthy one, checks the invariants, and
	// returns how many operations the first generation issued.
	lifecycle := func(killAt int64) int64 {
		dir := t.TempDir()
		chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
		if killAt > 0 {
			chaos.KillAtOp(killAt)
		}
		what := fmt.Sprintf("kill at op %d", killAt)
		healthy, err := NewStore(filepath.Join(dir, "artifacts"), frame.OS{})
		if err != nil {
			t.Fatal(err)
		}

		// The dead generation's reads fail too, so what is on disk is read
		// through a healthy one.
		onDisk := &Server{cfg: config(dir, frame.OS{})}

		acked := make(map[string]bool)
		if s, err := New(config(dir, chaos)); err == nil {
			ids := make([]string, len(specs))
			var wg sync.WaitGroup
			for i, spec := range specs {
				wg.Add(1)
				go func(i int, spec JobSpec) {
					defer wg.Done()
					// A refusal means the disk died under the queued record.
					if st, _, err := s.Submit(spec); err == nil {
						ids[i] = st.ID
					}
				}(i, spec)
			}
			wg.Wait()
			for _, id := range ids {
				if id == "" {
					continue
				}
				acked[id] = true
				end := waitDone(t, s, id)
				if end.State != StateDone {
					continue
				}
				// done was shown to a caller: it must already be on disk.
				if doc, err := healthy.Get(end.Artifact); err != nil || !bytes.Equal(doc, want) {
					t.Fatalf("%s: job %s shown done, artifact on disk: %v", what, id, err)
				}
				if rec, err := onDisk.readJobRecord(id); err != nil || rec.State != StateDone {
					t.Fatalf("%s: job %s shown done, record on disk: %+v, %v", what, id, rec, err)
				}
			}
			s.Close()
		}
		for id := range acked {
			rec, err := onDisk.readJobRecord(id)
			if err != nil {
				t.Fatalf("%s: acknowledged job %s has no record on disk: %v", what, id, err)
			}
			if rec.State == StateDone {
				if _, err := healthy.Get(rec.Artifact); err != nil {
					t.Fatalf("%s: job %s is done on disk without its artifact: %v", what, id, err)
				}
			}
		}

		r, err := New(config(dir, frame.OS{}))
		if err != nil {
			t.Fatalf("%s: restart: %v", what, err)
		}
		defer r.Close()
		seqs := make(map[int64]string)
		for _, st := range r.Jobs() {
			end := waitDone(t, r, st.ID)
			if end.State != StateDone {
				t.Fatalf("%s: job %s ended %s (%s) on a healthy disk", what, st.ID, end.State, end.Error)
			}
			if doc, err := r.Artifact(end.Artifact); err != nil || !bytes.Equal(doc, want) {
				t.Fatalf("%s: job %s: verdict document differs from serial (%v):\n%s\nvs\n%s", what, st.ID, err, doc, want)
			}
			if other, dup := seqs[end.Seq]; dup || end.Seq == 0 {
				t.Fatalf("%s: jobs %s and %s share completion seq %d", what, other, st.ID, end.Seq)
			}
			seqs[end.Seq] = st.ID
			delete(acked, st.ID)
		}
		for id := range acked {
			t.Fatalf("%s: acknowledged job %s is missing after the restart", what, id)
		}
		return chaos.Ops()
	}

	total := lifecycle(0)
	if total < 40 {
		t.Fatalf("probe lifecycle issued only %d disk operations", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 3
	}
	for k := int64(1); k <= total+2; k += stride {
		lifecycle(k)
	}
	t.Logf("swept %d kill points", (total+2)/stride)
}
