package frame

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecord: a record reads back what it wrote; a missing file is a
// fresh start; every refusal — bytes that are not one intact frame,
// another version, another job, a body the decoder rejects or does not
// consume — names the record and matches ErrCannotResume; and a read
// that keeps failing is returned as the I/O error, no refusal.
func TestRecord(t *testing.T) {
	dir := t.TempDir()
	rc := Record{Path: filepath.Join(dir, "state"), Type: 0x52, Version: 3, Job: 0xfeed, Name: "test: record"}
	body := func(b []byte) []byte { return binary.AppendUvarint(b, 42) }
	decode := func(got *uint64) func(r *Reader) error {
		return func(r *Reader) error { *got = r.Uvarint("answer"); return nil }
	}

	var got uint64
	if found, err := rc.Read(decode(&got)); found || err != nil {
		t.Fatalf("missing record: found %v, err %v", found, err)
	}
	if err := rc.Write(body); err != nil {
		t.Fatal(err)
	}
	if found, err := rc.Read(decode(&got)); !found || err != nil || got != 42 {
		t.Fatalf("intact record: found %v, body %d, err %v", found, got, err)
	}
	// The header is uvarint version then uvarint job, then the body.
	raw, err := os.ReadFile(rc.Path)
	if err != nil {
		t.Fatal(err)
	}
	want := Append(nil, 0x52, body(binary.AppendUvarint(binary.AppendUvarint(nil, 3), 0xfeed)))
	if string(raw) != string(want) {
		t.Fatalf("record bytes %x, want %x", raw, want)
	}

	refused := func(name string, rc Record, decode func(*Reader) error, text string) {
		t.Helper()
		found, err := rc.Read(decode)
		if !found || !errors.Is(err, ErrCannotResume) || !strings.Contains(err.Error(), "test: record") || !strings.Contains(err.Error(), text) {
			t.Fatalf("%s: found %v, err %v, want a refusal naming the record and saying %q", name, found, err, text)
		}
	}
	other := rc
	other.Version = 4
	refused("other version", other, decode(&got), "test: record version 3, want 4")
	other = rc
	other.Job = 1
	refused("other job", other, decode(&got), "written by a different job; refusing to resume")
	refused("decoder error", rc, func(*Reader) error { return errors.New("no such answer") }, "no such answer; refusing to resume")
	refused("unconsumed body", rc, func(*Reader) error { return nil }, "1 trailing bytes in payload; refusing to resume")
	for _, tc := range []struct {
		name, text string
		raw        []byte
	}{
		{"truncated", "corrupt or truncated", raw[:len(raw)-3]},
		{"trailing bytes", "trailing bytes", append(append([]byte(nil), raw...), 0)},
		{"other type", "frame type", Append(nil, 0x53, raw[5:len(raw)-8])},
		{"no header", "truncated version in payload", Append(nil, 0x52, nil)},
		{"no job", "truncated job hash in payload", Append(nil, 0x52, []byte{3})},
	} {
		if err := os.WriteFile(rc.Path, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(tc.name, rc, decode(&got), tc.text)
	}

	c := &countingFS{}
	c.failReads.Store(Attempts)
	failing := rc
	failing.FS = c
	if found, err := failing.Read(decode(&got)); found || !errors.Is(err, errInjected) || errors.Is(err, ErrCannotResume) {
		t.Fatalf("persistent read fault: found %v, err %v, want the I/O error, no refusal", found, err)
	}

	rc.Remove()
	if found, err := rc.Read(decode(&got)); found || err != nil {
		t.Fatalf("removed record: found %v, err %v", found, err)
	}
}
