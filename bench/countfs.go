package main

import (
	"io/fs"
	"sync/atomic"
	"time"

	"randsync/internal/frame"
)

// fsCounts is a snapshot of a countFS's totals.
type fsCounts struct {
	Creates, Opens, Syncs, Renames, Removes int64
	BytesWritten, BytesRead                 int64
	SyncTime, WriteTime, ReadTime           time.Duration
}

// ops is the number of filesystem operations of any kind.
func (c fsCounts) ops() int64 {
	return c.Creates + c.Opens + c.Syncs + c.Renames + c.Removes
}

// countFS is the frame layer measured from outside: a frame.FS that
// forwards every call to the wrapped filesystem, counts it, times the
// calls that touch the disk, and — when a recorder is attached —
// records each as a span under the job that owns the path.  It is
// installed through valency.Options.SpillFS and service.Config.FS, the
// same seams the disk-fault injector uses, and only in traced runs.
type countFS struct {
	inner frame.FS
	rec   *recorder
	// jobOf maps a path to the job key its spans belong to.
	jobOf func(path string) string

	creates, opens, syncs, renames, removes atomic.Int64
	bytesWritten, bytesRead                 atomic.Int64
	syncNS, writeNS, readNS                 atomic.Int64
}

func newCountFS(inner frame.FS, rec *recorder, jobOf func(path string) string) *countFS {
	return &countFS{inner: inner, rec: rec, jobOf: jobOf}
}

func (f *countFS) snapshot() fsCounts {
	return fsCounts{
		Creates: f.creates.Load(), Opens: f.opens.Load(), Syncs: f.syncs.Load(),
		Renames: f.renames.Load(), Removes: f.removes.Load(),
		BytesWritten: f.bytesWritten.Load(), BytesRead: f.bytesRead.Load(),
		SyncTime:  time.Duration(f.syncNS.Load()),
		WriteTime: time.Duration(f.writeNS.Load()),
		ReadTime:  time.Duration(f.readNS.Load()),
	}
}

// sub returns the counts accumulated since an earlier snapshot.
func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		Creates: c.Creates - o.Creates, Opens: c.Opens - o.Opens, Syncs: c.Syncs - o.Syncs,
		Renames: c.Renames - o.Renames, Removes: c.Removes - o.Removes,
		BytesWritten: c.BytesWritten - o.BytesWritten, BytesRead: c.BytesRead - o.BytesRead,
		SyncTime: c.SyncTime - o.SyncTime, WriteTime: c.WriteTime - o.WriteTime, ReadTime: c.ReadTime - o.ReadTime,
	}
}

func (f *countFS) Create(name string) (frame.File, error) {
	t0 := time.Now()
	file, err := f.inner.Create(name)
	f.creates.Add(1)
	job := f.jobOf(name)
	f.rec.addScoped("frame.create", job, t0, time.Now())
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f, job: job}, nil
}

func (f *countFS) Open(name string) (frame.File, error) {
	file, err := f.inner.Open(name)
	f.opens.Add(1)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f, job: f.jobOf(name)}, nil
}

func (f *countFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	f.renames.Add(1)
	f.rec.addScoped("frame.rename", f.jobOf(newpath), t0, time.Now())
	return err
}

func (f *countFS) Remove(name string) error {
	f.removes.Add(1)
	return f.inner.Remove(name)
}

func (f *countFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *countFS) MkdirAll(path string) error                 { return f.inner.MkdirAll(path) }

// countFile counts and times one open file's reads, writes and syncs.
type countFile struct {
	frame.File
	fs  *countFS
	job string
}

func (c *countFile) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.File.Read(p)
	c.read(t0, n)
	return n, err
}

func (c *countFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := c.File.ReadAt(p, off)
	c.read(t0, n)
	return n, err
}

func (c *countFile) read(t0 time.Time, n int) {
	t1 := time.Now()
	c.fs.bytesRead.Add(int64(n))
	c.fs.readNS.Add(int64(t1.Sub(t0)))
	c.fs.rec.addScoped("frame.read", c.job, t0, t1)
}

func (c *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.File.Write(p)
	t1 := time.Now()
	c.fs.bytesWritten.Add(int64(n))
	c.fs.writeNS.Add(int64(t1.Sub(t0)))
	c.fs.rec.addScoped("frame.write", c.job, t0, t1)
	return n, err
}

func (c *countFile) Sync() error {
	t0 := time.Now()
	err := c.File.Sync()
	t1 := time.Now()
	c.fs.syncs.Add(1)
	c.fs.syncNS.Add(int64(t1.Sub(t0)))
	c.fs.rec.addScoped("frame.sync", c.job, t0, t1)
	return err
}
