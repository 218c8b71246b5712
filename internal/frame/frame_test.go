package frame

import (
	"bytes"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The inlined FNV-1a must match hash/fnv (and therefore
// sim.FingerprintBytes) exactly — the dist wire format depends on it.
func TestFingerprintMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "frame", "\x00\xff\x80", "the quick brown fox"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := Fingerprint([]byte(s)), h.Sum64(); got != want {
			t.Fatalf("Fingerprint(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {0x01}, bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		if err := Write(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		typ, got, err := Read(r)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got type %d payload %d bytes", i, typ, len(got))
		}
	}
	if _, _, err := Read(r); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestCorruptionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 7, []byte("payload bytes here")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if _, _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadAt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.bin")
	var fsys OS
	err := WriteFileAtomic(fsys, path, func(w io.Writer) error {
		for i := 0; i < 5; i++ {
			if err := Write(w, byte(i+1), bytes.Repeat([]byte{byte(i)}, i*7)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var off int64
	for i := 0; i < 5; i++ {
		typ, p, next, err := ReadAt(f, off)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || len(p) != i*7 {
			t.Fatalf("frame %d: type %d len %d", i, typ, len(p))
		}
		off = next
	}
	if _, _, _, err := ReadAt(f, off); err == nil {
		t.Fatal("read past end accepted")
	}
	// No temp sibling left behind.
	if _, err := os.Stat(path + ".tmp"); err == nil {
		t.Fatal("temp file left behind")
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	var fsys OS
	for _, content := range []string{"first", "second longer content"} {
		err := WriteFileAtomic(fsys, path, func(w io.Writer) error {
			return Write(w, 1, []byte(content))
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fsys.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, p, err := Read(f)
		f.Close()
		if err != nil || string(p) != content {
			t.Fatalf("got %q err %v, want %q", p, err, content)
		}
	}
}

// TestReadAtIntoAgreesWithReadAt: the buffer-reusing read is the same
// decoder as ReadAt — frame for frame, whatever size the caller guessed —
// it reuses the caller's buffer, and it rejects short reads, bad lengths
// and checksum mismatches with ReadAt's own errors.
func TestReadAtIntoAgreesWithReadAt(t *testing.T) {
	var raw []byte
	var offs []int
	for i, n := range []int{0, 1, 600, 13, 5000, 32} {
		offs = append(offs, len(raw))
		raw = Append(raw, byte(i+1), bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	offs = append(offs, len(raw))
	f := bytes.NewReader(raw)

	var buf []byte
	for i := 0; i+1 < len(offs); i++ {
		off, size := int64(offs[i]), offs[i+1]-offs[i]
		wantTyp, want, wantNext, err := ReadAt(f, off)
		if err != nil || wantNext != int64(offs[i+1]) {
			t.Fatalf("frame %d: ReadAt next %d err %v", i, wantNext, err)
		}
		// The exact size, no size, an underestimate, an overestimate that
		// runs into the next frame or past the end of the file.
		for _, hint := range []int{size, 0, 3, size - 1, size + 1, size + 40, len(raw)} {
			typ, p, next, err := ReadAtInto(f, off, hint, &buf)
			if err != nil || typ != wantTyp || next != wantNext || !bytes.Equal(p, want) {
				t.Fatalf("frame %d hint %d: type %d next %d err %v, payload equal %v", i, hint, typ, next, err, bytes.Equal(p, want))
			}
			if len(p) > 0 && &p[0] != &buf[5] {
				t.Fatalf("frame %d hint %d: payload does not alias the caller's buffer", i, hint)
			}
		}
	}
	// Once grown to the largest frame the buffer is reused as is.
	before := &buf[0]
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i+1 < len(offs); i++ {
			if _, _, _, err := ReadAtInto(f, int64(offs[i]), offs[i+1]-offs[i], &buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 || &buf[0] != before {
		t.Fatalf("steady-state reads allocate %v times (buffer moved: %v)", allocs, &buf[0] != before)
	}

	// Rejections: both entry points, same verdict, same words.
	same := func(name string, data []byte, off int64, hint int) {
		t.Helper()
		r := bytes.NewReader(data)
		_, _, _, errAt := ReadAt(r, off)
		_, _, _, errInto := ReadAtInto(r, off, hint, &buf)
		if errAt == nil || errInto == nil || errAt.Error() != errInto.Error() {
			t.Fatalf("%s: ReadAt says %v, ReadAtInto(hint %d) says %v", name, errAt, hint, errInto)
		}
	}
	last := offs[len(offs)-2]
	for cut := last + 1; cut < len(raw); cut++ {
		same("file ends inside the frame", raw[:cut], int64(last), len(raw)-last)
		same("file ends inside the frame", raw[:cut], int64(last), 0)
	}
	same("read at the end of the file", raw, int64(len(raw)), 64)
	if _, _, _, err := ReadAt(f, int64(len(raw))); err != io.EOF {
		t.Fatalf("read at the end of the file: %v, want io.EOF", err)
	}
	if _, _, _, err := ReadAt(bytes.NewReader(raw[:len(raw)-1]), int64(last)); err != io.ErrUnexpectedEOF {
		t.Fatalf("read of a torn frame: %v, want io.ErrUnexpectedEOF", err)
	}
	for _, n := range []uint32{0, 8, MaxFrame + 1, 1<<32 - 1} {
		bad := append([]byte(nil), raw...)
		bad[offs[2]], bad[offs[2]+1], bad[offs[2]+2], bad[offs[2]+3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
		same("length out of range", bad, int64(offs[2]), offs[3]-offs[2])
	}
	for i := offs[2] + 4; i < offs[3]; i += 37 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x08
		same("bit flip", bad, int64(offs[2]), offs[3]-offs[2])
	}
	// A length prefix corrupted upwards must not leave the caller holding
	// a buffer of that size.
	bad := append([]byte(nil), raw...)
	bad[offs[2]+1] = 0x80 // 600-byte frame now claims 8 MiB
	small := make([]byte, 0, 16)
	if _, _, _, err := ReadAtInto(bytes.NewReader(bad), int64(offs[2]), 0, &small); err == nil || cap(small) > 1<<20 {
		t.Fatalf("corrupt length: err %v, caller's buffer grew to %d bytes", err, cap(small))
	}
}
