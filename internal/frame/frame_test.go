package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The inlined FNV-1a must match hash/fnv (and therefore
// sim.FingerprintBytes) exactly: job ids, artifact names and manifest
// job hashes are content addresses under it, and frames written by
// earlier builds carry it as their trailer.
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

// TestCorruptionRejected: at every payload size from empty to 64 KiB,
// Read and ReadAtInto both refuse every single-bit flip, a burst of
// every length up to 32 bits at a seeded sample of offsets, and every
// truncation.  On the 64 KiB payload the single-bit flips cover every
// bit of the first and last 64 bytes (length, type, trailer) and every
// bit of a seeded sample of the bytes between: a refused frame costs a
// checksum and an FNV-1a pass, ~0.1 ms at that size, so all of its
// 524,392 bits would take minutes.  -short samples more thinly, its
// truncations too, and tries fewer burst offsets.
func TestCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 1))
	every, bursts := 128, 64
	if testing.Short() {
		every, bursts = 2048, 16
	}
	for _, size := range []int{0, 1, 24, 1122, 65536} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(rng.Uint32())
		}
		raw := Append(nil, 7, payload)
		bad := append([]byte(nil), raw...)
		var buf []byte
		refused := func(what string, data []byte) {
			t.Helper()
			if _, _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatalf("%d-byte payload: Read accepted %s", size, what)
			}
			if _, _, _, err := ReadAtInto(bytes.NewReader(data), 0, len(raw), &buf); err == nil {
				t.Fatalf("%d-byte payload: ReadAtInto accepted %s", size, what)
			}
		}
		flip := func(bit int) { bad[bit/8] ^= 0x80 >> (bit % 8) }

		sampled := func(i int) bool {
			return len(raw) <= 4096 || i < 64 || i >= len(raw)-64 || rng.IntN(every) == 0
		}
		for i := range raw {
			if !sampled(i) {
				continue
			}
			for bit := 8 * i; bit < 8*i+8; bit++ {
				flip(bit)
				refused(fmt.Sprintf("a flip of bit %d", bit), bad)
				flip(bit)
			}
		}

		// A burst of length n flips its first and last bit and a seeded
		// pattern between them, anywhere in the frame: one that lands in
		// the length prefix is refused by the length or by a short read.
		for range bursts {
			start := rng.IntN(8 * len(raw))
			for n := 1; n <= 32 && start+n <= 8*len(raw); n++ {
				burst := []int{start}
				for bit := start + 1; bit < start+n-1; bit++ {
					if rng.IntN(2) == 0 {
						burst = append(burst, bit)
					}
				}
				if n > 1 {
					burst = append(burst, start+n-1)
				}
				for _, bit := range burst {
					flip(bit)
				}
				refused(fmt.Sprintf("a %d-bit burst at bit %d", n, start), bad)
				for _, bit := range burst {
					flip(bit)
				}
			}
		}

		for cut := 0; cut < len(raw); cut++ {
			if testing.Short() && !sampled(cut) {
				continue
			}
			refused(fmt.Sprintf("a cut at byte %d", cut), raw[:cut])
		}
		if !bytes.Equal(bad, raw) {
			t.Fatal("the drill left a flip behind")
		}
		if _, p, err := Read(bytes.NewReader(raw)); err != nil || !bytes.Equal(p, payload) {
			t.Fatalf("%d-byte payload: intact frame refused: %v", size, err)
		}
	}
}

// TestLyingLengthAllocatesLittle: a 100-byte stream whose length
// prefix claims MaxFrame is refused by Read and ReadAtInto with under
// 2 MiB allocated: a buffer past 1 MiB grows only as bytes arrive.  The
// allocation is averaged over reads, after a GC, so that small objects
// earlier tests allocated and the runtime has not yet counted do not
// land in the delta.
func TestLyingLengthAllocatesLittle(t *testing.T) {
	data := make([]byte, 100)
	binary.BigEndian.PutUint32(data, MaxFrame)
	var buf []byte
	for _, tc := range []struct {
		name string
		read func() error
	}{
		{"Read", func() error { _, _, err := Read(bytes.NewReader(data)); return err }},
		{"ReadAtInto", func() error { _, _, _, err := ReadAtInto(bytes.NewReader(data), 0, 0, &buf); return err }},
	} {
		const reads = 8
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range reads {
			if err := tc.read(); err != io.ErrUnexpectedEOF {
				t.Fatalf("%s: err %v, want io.ErrUnexpectedEOF", tc.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / reads; n >= 2<<20 {
			t.Fatalf("%s allocated %d bytes a read for a 100-byte stream claiming %d", tc.name, n, MaxFrame)
		}
	}
}

// withTrailer returns frame raw with its trailer replaced by sum of the
// frame's type+payload bytes.
func withTrailer(raw []byte, sum func([]byte) uint64) []byte {
	out := append([]byte(nil), raw...)
	binary.BigEndian.PutUint64(out[len(out)-8:], sum(out[4:len(out)-8]))
	return out
}

// TestLegacyTrailerAccepted: a frame whose trailer is the Fingerprint of
// its type+payload, as earlier builds wrote every frame, reads back
// through Read, ReadAtInto and ReadFile; a trailer that is the checksum
// or the Fingerprint of another body is refused by all three.
func TestLegacyTrailerAccepted(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	read := func(raw []byte) (payloads [3][]byte, errs [3]error) {
		t.Helper()
		_, payloads[0], errs[0] = Read(bytes.NewReader(raw))
		var p []byte
		_, p, _, errs[1] = ReadAtInto(bytes.NewReader(raw), 0, len(raw), &buf)
		payloads[1] = append([]byte(nil), p...)
		path := filepath.Join(dir, "record")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		payloads[2], errs[2] = ReadFile(OS{}, path, 7, nil)
		return payloads, errs
	}
	names := [3]string{"Read", "ReadAtInto", "ReadFile"}
	for _, size := range []int{0, 1, 24, 1122} {
		payload := bytes.Repeat([]byte{0x5a}, size)
		raw := Append(nil, 7, payload)
		legacy := withTrailer(raw, Fingerprint)
		if bytes.Equal(legacy, raw) {
			t.Fatalf("%d-byte payload: the legacy trailer equals the checksum", size)
		}
		payloads, errs := read(legacy)
		for i := range names {
			if errs[i] != nil || !bytes.Equal(payloads[i], payload) {
				t.Fatalf("%d-byte payload, FNV-1a trailer: %s returned %d bytes, err %v", size, names[i], len(payloads[i]), errs[i])
			}
		}

		other := Append(nil, 7, append(payload, 0))
		otherBody := other[4 : len(other)-8]
		for _, sum := range []struct {
			name string
			f    func([]byte) uint64
		}{{"checksum", checksum}, {"Fingerprint", Fingerprint}} {
			forged := withTrailer(raw, func([]byte) uint64 { return sum.f(otherBody) })
			_, errs := read(forged)
			for i := range names {
				if !errors.Is(errs[i], ErrCorrupt) {
					t.Fatalf("%d-byte payload, trailer = %s of another body: %s err %v, want ErrCorrupt", size, sum.name, names[i], errs[i])
				}
			}
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

// BenchmarkReadAtInto reads back one spill-block-sized frame (1,122
// bytes, the mean block of the benchmark's spill-evict job) through the
// buffer-reusing read; MB/s is the read-and-verify rate.
func BenchmarkReadAtInto(b *testing.B) {
	payload := make([]byte, 1122-13)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	f := bytes.NewReader(Append(nil, 0x42, payload))
	var buf []byte
	b.SetBytes(int64(f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ReadAtInto(f, 0, int(f.Size()), &buf); err != nil {
			b.Fatal(err)
		}
	}
}
