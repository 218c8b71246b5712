package frame

import (
	"io"
	"io/fs"
	"os"
)

// File is the slice of *os.File the frame layer needs: sequential and
// random reads, appends, durability, close.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem seam every durable writer in the repo goes
// through.  OS is the real implementation; fault.DiskChaos wraps any FS
// and injects seeded short writes, ENOSPC, fsync failures, and read-side
// corruption underneath the callers, which is how the spill layer's
// fault soaks drive every code path without touching a real flaky disk.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string) error
}

// OrOS returns fsys, or OS when fsys is nil: every FS option in the repo
// takes nil for the real disk.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}

// OS is the passthrough FS backed by package os.
type OS struct{}

func (OS) Create(name string) (File, error)           { return os.Create(name) }
func (OS) Open(name string) (File, error)             { return os.Open(name) }
func (OS) Rename(o, n string) error                   { return os.Rename(o, n) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OS) MkdirAll(path string) error                 { return os.MkdirAll(path, 0o755) }
