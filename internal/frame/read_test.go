package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestReaderPrimitives: every primitive reads back what its encoding
// wrote, byte strings alias the payload with their capacity capped, and
// Err is nil exactly when the payload was consumed.
func TestReaderPrimitives(t *testing.T) {
	p := binary.AppendUvarint(nil, 300)
	p = binary.AppendVarint(p, -7)
	p = binary.BigEndian.AppendUint64(p, 0xdeadbeefcafef00d)
	p = binary.AppendUvarint(p, 3)
	p = append(p, "key"...)
	p = binary.AppendUvarint(p, 2) // a count of two one-byte elements
	p = append(p, 0x01, 0x02)
	p = append(p, "tail"...)

	r := NewReader(p)
	if v := r.Uvarint("u"); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint("v"); v != -7 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Fixed64("f"); v != 0xdeadbeefcafef00d {
		t.Fatalf("Fixed64 = %#x", v)
	}
	b := r.Bytes("b")
	if string(b) != "key" || cap(b) != 3 || &b[0] != &p[len(p)-10] {
		t.Fatalf("Bytes = %q (cap %d), want an aliasing, capped %q", b, cap(b), "key")
	}
	if n := r.Count("c"); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	r.Uvarint("e0")
	r.Uvarint("e1")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "4 trailing bytes") || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Err with 4 bytes unread = %v, want a trailing-byte ErrCorrupt", err)
	}
	if rest := r.Rest(); string(rest) != "tail" {
		t.Fatalf("Rest = %q", rest)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err after Rest = %v", err)
	}
}

// TestReaderSticky: the first failure sticks — every later read returns
// a zero value, whatever bytes follow — and Err reports it, not a later
// one.
func TestReaderSticky(t *testing.T) {
	cases := []struct {
		name string
		p    []byte
		read func(r *Reader)
		want string
	}{
		{"uvarint", bytes.Repeat([]byte{0xff}, 10), func(r *Reader) { r.Uvarint("first") }, "truncated first"},
		{"varint", bytes.Repeat([]byte{0xff}, 10), func(r *Reader) { r.Varint("first") }, "truncated first"},
		{"fixed64", []byte{1, 2, 3}, func(r *Reader) { r.Fixed64("first") }, "truncated first"},
		{"bytes length", bytes.Repeat([]byte{0xff}, 10), func(r *Reader) { r.Bytes("first") }, "truncated first"},
		{"bytes body", []byte{5, 'a'}, func(r *Reader) { r.Bytes("first") }, "truncated first"},
		{"count", []byte{9, 1, 2}, func(r *Reader) { r.Count("first") }, "first 9 exceeds the 3 bytes left in payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A well-formed varint follows the failure; it may not be read.
			r := NewReader(append(append([]byte(nil), tc.p...), 9))
			tc.read(r)
			if v := r.Uvarint("second"); v != 0 {
				t.Fatalf("read after a failure returned %d", v)
			}
			if v := r.Varint("second"); v != 0 {
				t.Fatalf("read after a failure returned %d", v)
			}
			if v := r.Bytes("second"); v != nil {
				t.Fatalf("read after a failure returned %q", v)
			}
			if n := r.Count("second"); n != 0 {
				t.Fatalf("read after a failure returned %d", n)
			}
			if rest := r.Rest(); rest != nil {
				t.Fatalf("Rest after a failure returned %q", rest)
			}
			err := r.Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Err = %v, want an ErrCorrupt saying %q", err, tc.want)
			}
		})
	}
}

// TestReaderCountBound: a count is accepted up to the bytes left and
// refused one above — the largest count the payload can hold, however
// the elements are encoded, and no more.
func TestReaderCountBound(t *testing.T) {
	for _, left := range []int{0, 1, 7} {
		for _, n := range []uint64{uint64(left), uint64(left) + 1, 1 << 40} {
			p := append(binary.AppendUvarint(nil, n), make([]byte, left)...)
			r := NewReader(p)
			got := r.Count("elements")
			r.Rest()
			err := r.Err()
			if n <= uint64(left) {
				if err != nil || got != int(n) {
					t.Fatalf("count %d with %d bytes left: got %d, err %v", n, left, got, err)
				}
				continue
			}
			if err == nil || got != 0 || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("count %d with %d bytes left accepted (%d, err %v)", n, left, got, err)
			}
		}
	}
}

// countingFS counts Opens and injects errors into the first failOpens
// Opens and the first failReads Reads.
type countingFS struct {
	OS
	opens                atomic.Int64
	failOpens, failReads atomic.Int64
}

var errInjected = errors.New("injected I/O fault")

func (c *countingFS) Open(name string) (File, error) {
	c.opens.Add(1)
	if c.failOpens.Add(-1) >= 0 {
		return nil, errInjected
	}
	f, err := c.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: f, fs: c}, nil
}

type faultyFile struct {
	File
	fs *countingFS
}

func (f *faultyFile) Read(p []byte) (int, error) {
	if f.fs.failReads.Add(-1) >= 0 {
		return 0, errInjected
	}
	return f.File.Read(p)
}

// TestReadFile: ReadFile returns the payload of a file holding exactly
// one frame of the asked type; a missing file costs one Open, no retry
// and no sleep; every proper prefix, a trailing byte and a wrong type
// are refused as ErrCorrupt after the retries; a transient Open or Read
// fault is retried and counted, and a persistent one is returned as
// itself.
func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record")
	payload := []byte("durable record")
	good := Append(nil, 0x56, payload)
	write := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func(fsys FS) ([]byte, int64, error) {
		var retries atomic.Int64
		p, err := ReadFile(fsys, path, 0x56, &retries)
		return p, retries.Load(), err
	}

	c := &countingFS{}
	start := time.Now()
	if _, retries, err := read(c); !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err %v, want fs.ErrNotExist", err)
	} else if n := c.opens.Load(); n != 1 || retries != 0 {
		t.Fatalf("missing file: %d Opens and %d retries, want 1 and 0", n, retries)
	}
	if d := time.Since(start); d >= Backoff {
		t.Fatalf("missing file took %v: a retry slept", d)
	}

	write(good)
	if p, retries, err := read(OS{}); err != nil || !bytes.Equal(p, payload) || retries != 0 {
		t.Fatalf("intact file: %q, %d retries, err %v", p, retries, err)
	}

	refuse := func(name string, b []byte) {
		t.Helper()
		write(b)
		p, retries, err := read(OS{})
		if err == nil || p != nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: payload %q, err %v, want ErrCorrupt", name, p, err)
		}
		if retries != Attempts-1 {
			t.Fatalf("%s: %d retries, want %d", name, retries, Attempts-1)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		refuse("prefix", good[:cut])
	}
	refuse("trailing byte", append(append([]byte(nil), good...), 0))
	refuse("wrong type", Append(nil, 0x57, payload))
	flipped := append([]byte(nil), good...)
	flipped[6] ^= 0x01
	refuse("bit flip", flipped)

	write(good)
	for _, tc := range []struct {
		name       string
		open, read int64
	}{{"open", 1, 0}, {"read", 0, 1}, {"open and read", 1, 2}} {
		c := &countingFS{}
		c.failOpens.Store(tc.open)
		c.failReads.Store(tc.read)
		p, retries, err := read(c)
		if err != nil || !bytes.Equal(p, payload) {
			t.Fatalf("transient %s fault: %q, err %v", tc.name, p, err)
		}
		if want := tc.open + tc.read; retries != want {
			t.Fatalf("transient %s fault: %d retries, want %d", tc.name, retries, want)
		}
	}
	c = &countingFS{}
	c.failReads.Store(Attempts)
	if _, retries, err := read(c); !errors.Is(err, errInjected) || errors.Is(err, ErrCorrupt) || retries != Attempts-1 {
		t.Fatalf("persistent read fault: %d retries, err %v, want the I/O error itself", retries, err)
	}
}

// TestRetry: Retry stops at the first success, gives up after Attempts
// tries with the last error, counts every retry and only retries, and
// takes a nil counter.
func TestRetry(t *testing.T) {
	var retries atomic.Int64
	calls := 0
	if err := Retry(&retries, func() error { calls++; return nil }); err != nil || calls != 1 || retries.Load() != 0 {
		t.Fatalf("success: err %v after %d calls, %d retries", err, calls, retries.Load())
	}
	calls = 0
	err := Retry(&retries, func() error {
		calls++
		if calls < 3 {
			return io.ErrUnexpectedEOF
		}
		return nil
	})
	if err != nil || calls != 3 || retries.Load() != 2 {
		t.Fatalf("third-try success: err %v after %d calls, %d retries", err, calls, retries.Load())
	}
	retries.Store(0)
	calls = 0
	last := errors.New("last")
	err = Retry(&retries, func() error {
		calls++
		if calls == Attempts {
			return last
		}
		return io.EOF
	})
	if err != last || calls != Attempts || retries.Load() != Attempts-1 {
		t.Fatalf("exhausted: err %v after %d calls, %d retries", err, calls, retries.Load())
	}
	if err := Retry(nil, func() error { return last }); err != last {
		t.Fatalf("nil counter: err %v", err)
	}
}
