// Package frame is the durable on-disk (and on-wire) envelope shared by
// every subsystem that persists or ships binary state: the distributed
// cluster's wire protocol and checkpoints (internal/dist) and the
// exploration engine's spill tier (internal/explore).
//
// A frame is
//
//	[4B big-endian length][1B type][payload][8B big-endian FNV-1a of type+payload]
//
// where length counts everything after itself.  The trailing fingerprint
// is the same FNV-1a 64 hash the visited set fingerprints keys with
// (sim.FingerprintBytes), so a torn, bit-flipped, or truncated frame is
// rejected before its payload can poison an exploration — on the wire
// and on disk alike.
//
// The package also owns the atomic-durable file discipline every
// checkpoint and spill file follows: write to a temp sibling, fsync,
// rename into place, fsync the directory.  A crash at any instant leaves
// either the previous file or the new one, never a torn hybrid.  All I/O
// goes through the FS seam (fs.go) so the disk-fault injector
// (internal/fault.DiskChaos) can interpose on every operation.
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"slices"
)

// FNV-1a 64 constants (hash/fnv's), inlined to keep the package
// dependency-free; the values match sim.FingerprintBytes byte for byte,
// which is what keeps the dist wire format unchanged.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint hashes b with FNV-1a 64 — identical to
// sim.FingerprintBytes, re-stated here so frame has no dependencies.
func Fingerprint(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// MaxFrame bounds a frame so a corrupted length prefix cannot allocate
// unboundedly.  64 MiB is far above any payload the cluster or the spill
// tier produces.
const MaxFrame = 1 << 26

// Append appends one encoded frame to buf and returns the extended
// slice.
func Append(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(payload)+8))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint64(buf, Fingerprint(buf[start+4:]))
}

// Write encodes one frame to w.
func Write(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 0, 4+1+len(payload)+8)
	buf = Append(buf, typ, payload)
	_, err := w.Write(buf)
	return err
}

// Read decodes one frame from r, verifying the embedded fingerprint.
// io.EOF at a frame boundary is returned verbatim so callers can iterate
// a file of concatenated frames to its end.
func Read(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 || n > MaxFrame {
		return 0, nil, fmt.Errorf("frame: length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	sum := binary.BigEndian.Uint64(body[n-8:])
	body = body[:n-8]
	if Fingerprint(body) != sum {
		return 0, nil, fmt.Errorf("frame: checksum mismatch")
	}
	return body[0], body[1:], nil
}

// ReadAt decodes the frame starting at offset off of f, verifying the
// embedded fingerprint, and returns its type, payload, and the offset of
// the byte after the frame.  The payload is freshly allocated; callers
// on a hot path use ReadAtInto.
func ReadAt(f io.ReaderAt, off int64) (typ byte, payload []byte, next int64, err error) {
	var buf []byte
	return ReadAtInto(f, off, 0, &buf)
}

// ReadAtInto is ReadAt into a caller-owned buffer: *buf is grown when
// the frame does not fit and handed back for the next call, and the
// returned payload aliases it, so it is valid only until *buf is used
// again.  size is the frame's encoded length when the caller knows it
// (the spill tier's block index does) and 0 otherwise: a correct size
// fetches the whole frame with one f.ReadAt, any other value costs a
// second read for the remainder, never a wrong result.  This is the
// random-access read the spill tier's block lookups use: one frame is
// read, checksummed and returned without touching the rest of the file
// or the heap.
func ReadAtInto(f io.ReaderAt, off int64, size int, buf *[]byte) (typ byte, payload []byte, next int64, err error) {
	if size < 4 {
		size = 4
	}
	b := slices.Grow((*buf)[:0], size)[:size]
	*buf = b
	got, err := f.ReadAt(b, off)
	if got < 4 {
		return 0, nil, 0, shortRead(got, err)
	}
	n := binary.BigEndian.Uint32(b)
	if n < 9 || n > MaxFrame {
		return 0, nil, 0, fmt.Errorf("frame: length %d out of range at offset %d", n, off)
	}
	need := 4 + int(n)
	if got < need {
		if got < size {
			return 0, nil, 0, shortRead(got, err) // the file ends inside the frame
		}
		b = slices.Grow(b, need-got)[:need]
		more, err := f.ReadAt(b[got:], off+int64(got))
		if more < need-got {
			return 0, nil, 0, shortRead(got+more, err)
		}
	}
	body := b[4 : need-8]
	if Fingerprint(body) != binary.BigEndian.Uint64(b[need-8:]) {
		return 0, nil, 0, fmt.Errorf("frame: checksum mismatch at offset %d", off)
	}
	// Only a verified frame may leave the caller holding a larger buffer:
	// a corrupted length prefix must not pin MaxFrame bytes for the rest
	// of the run.
	*buf = b
	return body[0], body[1:], off + int64(need), nil
}

// shortRead names the failure of an f.ReadAt that returned fewer bytes
// than the frame needs: the reader's own error, or — at the end of the
// file — io.EOF at a frame boundary and io.ErrUnexpectedEOF inside one,
// as io.ReadFull reports them.
func shortRead(got int, err error) error {
	switch {
	case err != nil && err != io.EOF:
		return err
	case got == 0:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

// WriteFileAtomic durably replaces path with the given frame sequence:
// the frames are written to a temp sibling, fsync'd, renamed into place,
// and the directory is fsync'd.  A crash at any instant leaves either
// the previous file or the new one — never a torn hybrid.  write is
// handed the open temp file and emits the frames (typically via Write).
//
// One writer per path at a time: the temp sibling is always path+".tmp",
// so two concurrent calls for one path would truncate and rename each
// other's half-written file.  Callers serialise per path themselves —
// the service does it with one record writer per job and one Put in
// flight per artifact hash — and need no lock across different paths.
func WriteFileAtomic(fsys FS, path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	SyncDir(fsys, filepath.Dir(path))
	return nil
}

// SyncDir makes a rename durable on filesystems that require a directory
// fsync; best-effort (some platforms refuse directory syncs).
func SyncDir(fsys FS, dir string) {
	d, err := fsys.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
