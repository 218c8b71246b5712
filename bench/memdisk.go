package main

import (
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"randsync/internal/frame"
)

// modelSync is what one fsync costs on the modelled disk: about what the
// sandbox's virtual disk takes on a quiet minute (0.25–0.5 ms).
const modelSync = 250 * time.Microsecond

// memDisk is the disk every workload runs on: a frame.FS that keeps
// files in memory and charges a fixed modelSync for every Sync.  The
// program's own work — framing, checksums, run files, lookups, job
// records — is all there, and every sync stays on the job's blocking
// path, so a change that saves syncs or bytes still shows end to end.
// What is left out is the sandbox's real disk, whose cost belongs to the
// sandbox and swings by more than any change to the program would:
//
//   - its fsync drifts by a factor of two within half a minute (200-sync
//     medians of a 1 KiB WriteFileAtomic ran from 0.49 to 1.05 ms in one
//     40-second probe);
//   - it is ext4 without a journal, which will not reuse an inode
//     deleted in the last minutes and scans past every such inode on each
//     create: file creation costs 20 µs on a rested filesystem and 350–
//     450 µs of kernel CPU once a few thousand files have been deleted,
//     for as long as the benchmark keeps running.  svc-small (three
//     creates a job, 3 600 jobs a run) went from 7 to 10.5 ms a job over
//     six back-to-back runs of the same code.
//
// The traced run reports the real device beside the model, as
// frame.write_file_atomic_s and service.store_put_s.
type memDisk struct {
	mu   sync.RWMutex
	root *memNode
}

// memNode is a file or a directory; like an inode it outlives its name,
// so a handle opened before a Rename or Remove keeps working.
type memNode struct {
	dir      bool
	children map[string]*memNode // directories; guarded by memDisk.mu

	mu   sync.RWMutex // files; guards data
	data []byte
}

func newMemDisk() *memDisk {
	return &memDisk{root: &memNode{dir: true, children: make(map[string]*memNode)}}
}

func pathErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

// split returns the path's elements below the root.
func split(path string) []string {
	path = filepath.ToSlash(filepath.Clean(path))
	return strings.FieldsFunc(path, func(r rune) bool { return r == '/' })
}

// walk resolves elems from the root; the caller holds d.mu.
func (d *memDisk) walk(elems []string) *memNode {
	n := d.root
	for _, el := range elems {
		if !n.dir {
			return nil
		}
		if n = n.children[el]; n == nil {
			return nil
		}
	}
	return n
}

// parent resolves the directory holding path and the path's last element.
func (d *memDisk) parent(path string) (*memNode, string) {
	elems := split(path)
	if len(elems) == 0 {
		return nil, ""
	}
	dir := d.walk(elems[:len(elems)-1])
	if dir == nil || !dir.dir {
		return nil, ""
	}
	return dir, elems[len(elems)-1]
}

func (d *memDisk) Create(name string) (frame.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dir, base := d.parent(name)
	if dir == nil {
		return nil, pathErr("create", name, fs.ErrNotExist)
	}
	n := dir.children[base]
	switch {
	case n == nil:
		n = &memNode{}
		dir.children[base] = n
	case n.dir:
		return nil, pathErr("create", name, syscall.EISDIR)
	default:
		n.mu.Lock()
		n.data = nil
		n.mu.Unlock()
	}
	return &memFile{node: n}, nil
}

func (d *memDisk) Open(name string) (frame.File, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.walk(split(name))
	if n == nil {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	return &memFile{node: n}, nil
}

func (d *memDisk) Rename(oldpath, newpath string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	from, fromBase := d.parent(oldpath)
	to, toBase := d.parent(newpath)
	if from == nil || to == nil || from.children[fromBase] == nil {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	n := from.children[fromBase]
	if old := to.children[toBase]; old != nil && old != n && (old.dir != n.dir || len(old.children) > 0) {
		return pathErr("rename", newpath, fs.ErrExist)
	}
	delete(from.children, fromBase)
	to.children[toBase] = n
	return nil
}

func (d *memDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	dir, base := d.parent(name)
	if dir == nil || dir.children[base] == nil {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	if len(dir.children[base].children) > 0 {
		return pathErr("remove", name, syscall.ENOTEMPTY)
	}
	delete(dir.children, base)
	return nil
}

func (d *memDisk) ReadDir(name string) ([]fs.DirEntry, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.walk(split(name))
	if n == nil {
		return nil, pathErr("readdir", name, fs.ErrNotExist)
	}
	if !n.dir {
		return nil, pathErr("readdir", name, syscall.ENOTDIR)
	}
	ents := make([]fs.DirEntry, 0, len(n.children))
	for base, c := range n.children {
		ents = append(ents, memEntry{name: base, dir: c.dir})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	return ents, nil
}

func (d *memDisk) MkdirAll(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.root
	for _, el := range split(path) {
		c := n.children[el]
		if c == nil {
			c = &memNode{dir: true, children: make(map[string]*memNode)}
			n.children[el] = c
		}
		if !c.dir {
			return pathErr("mkdir", path, syscall.ENOTDIR)
		}
		n = c
	}
	return nil
}

// memEntry is a directory entry; the program reads only its name and
// whether it is a directory.
type memEntry struct {
	name string
	dir  bool
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return nil, fs.ErrInvalid }

// memFile is an open handle: sequential reads from its own offset,
// random reads, appends.
type memFile struct {
	node *memNode
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	if n > 0 {
		err = nil // a short sequential read reports EOF on the next call
	}
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.node.dir {
		return 0, syscall.EISDIR
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.node.dir {
		return 0, syscall.EISDIR
	}
	f.node.mu.Lock()
	f.node.data = append(f.node.data, p...)
	f.node.mu.Unlock()
	return len(p), nil
}

// Sync sleeps in the kernel, as fsync does: the goroutine's thread is
// blocked in a system call and its processor is free for other work.
// (time.Sleep rounds a sub-millisecond wait up to a millisecond.)
func (*memFile) Sync() error {
	ts := syscall.NsecToTimespec(int64(modelSync))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
	return nil
}

func (*memFile) Close() error { return nil }
