package main

import (
	"errors"
	"io"
	"io/fs"
	"testing"
	"time"

	"randsync/internal/frame"
)

// The modelled disk must behave like the real one wherever the program
// can tell: atomic replacement, missing files, directory listings,
// handles that outlive their name.
func TestMemDisk(t *testing.T) {
	d := newMemDisk()
	if _, err := d.Create("/data/jobs/a/rec"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("create under a missing directory: %v", err)
	}
	if err := d.MkdirAll("/data/jobs/a"); err != nil {
		t.Fatal(err)
	}
	write := func(path, body string) {
		t.Helper()
		err := frame.WriteFileAtomic(d, path, func(w io.Writer) error { return frame.Write(w, 1, []byte(body)) })
		if err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string) string {
		t.Helper()
		f, err := d.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, body, err := frame.Read(f)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	write("/data/jobs/a/rec", "one")
	old, err := d.Open("/data/jobs/a/rec")
	if err != nil {
		t.Fatal(err)
	}
	write("/data/jobs/a/rec", "two") // replaces the name, not the open file
	if got := read("/data/jobs/a/rec"); got != "two" {
		t.Errorf("after replacement read %q", got)
	}
	if _, body, err := frame.Read(old); err != nil || string(body) != "one" {
		t.Errorf("handle opened before the rename read %q, %v", body, err)
	}

	ents, err := d.ReadDir("/data/jobs/a")
	if err != nil || len(ents) != 1 || ents[0].Name() != "rec" || ents[0].IsDir() {
		t.Errorf("ReadDir = %v, %v; want the record alone (no temp file left)", ents, err)
	}
	if ents, _ := d.ReadDir("/data/jobs"); len(ents) != 1 || !ents[0].IsDir() {
		t.Errorf("ReadDir of the parent = %v", ents)
	}
	if _, err := d.Open("/data/jobs/b/rec"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("open of a missing file: %v", err)
	}
	if err := d.Remove("/data/jobs/a"); err == nil {
		t.Error("removed a directory that still holds a file")
	}
	if err := d.Remove("/data/jobs/a/rec"); err != nil {
		t.Error(err)
	}
	if err := d.Remove("/data/jobs/a/rec"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("second remove: %v", err)
	}
	if err := d.Remove("/data/jobs/a"); err != nil {
		t.Errorf("remove of the emptied directory: %v", err)
	}

	f, _ := d.Create("/data/x")
	f.Write([]byte("hello world"))
	buf := make([]byte, 5)
	if n, err := f.ReadAt(buf, 6); n != 5 || err != nil || string(buf) != "world" {
		t.Errorf("ReadAt = %d %q %v", n, buf, err)
	}
	if n, err := f.ReadAt(buf, 9); n != 2 || err != io.EOF {
		t.Errorf("short ReadAt = %d %v, want 2 EOF", n, err)
	}
	t0 := time.Now()
	f.Sync()
	if took := time.Since(t0); took < modelSync || took > 20*modelSync {
		t.Errorf("Sync took %v, want about %v", took, modelSync)
	}
}
