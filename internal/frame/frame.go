// Package frame is the durable on-disk (and on-wire) envelope shared by
// every subsystem that persists or ships binary state: the distributed
// cluster's wire protocol and checkpoints (internal/dist), the
// exploration engine's spill tier (internal/explore), the all-inputs
// sweep's vector cursor (internal/valency) and the checker service's job
// records and artifacts (internal/service).
//
// A frame is
//
//	[4B big-endian length][1B type][payload][8B big-endian CRC-32C<<32 | CRC-32 of type+payload]
//
// where length counts everything after itself.  The trailer pairs two
// CRCs with different generator polynomials, both hardware-accelerated
// (SSE4.2 and carry-less multiply on amd64), so a torn, bit-flipped, or
// truncated frame is rejected before its payload can poison an
// exploration — on the wire and on disk alike — and every burst of up
// to 32 bits is caught with certainty.  Readers also accept the trailer
// earlier builds wrote, the FNV-1a 64 Fingerprint of the same bytes, so
// their spill directories, records and checkpoints still load; the rule
// is verify.  Fingerprint itself stays FNV-1a: it is the content address
// of job ids, artifacts and manifests, not a frame checksum.
//
// The package owns both halves of every durable record.  The write half
// is the atomic-durable file discipline: write to a temp sibling, fsync,
// rename into place, fsync the directory, so a crash at any instant
// leaves either the previous file or the new one, never a torn hybrid.
// The read half (read.go) is ReadFile, which accepts a file only when it
// is exactly one intact frame of the expected type — a truncated file,
// trailing bytes and a foreign frame type are all refused as ErrCorrupt
// — and Reader, the one payload decoder, whose counts are bounded by the
// bytes left in the payload so a checksum-valid lie cannot size an
// allocation.  Retry is the one retry policy for disk operations.  All
// I/O goes through the FS seam (fs.go) so the disk-fault injector
// (internal/fault.DiskChaos) can interpose on every operation.
package frame

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
)

// FNV-1a 64 constants (hash/fnv's), inlined; the values match
// sim.FingerprintBytes byte for byte.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint hashes b with FNV-1a 64 — identical to
// sim.FingerprintBytes.  It is the repo's content address (job ids,
// artifact names, manifest job hashes) and the frame trailer earlier
// builds wrote; it must never change.
func Fingerprint(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the trailer every frame is written with: CRC-32C in the
// high word, CRC-32 (IEEE) in the low one.
func checksum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// verify reports whether sum is a trailer of body: its checksum, or —
// for frames written by earlier builds — its Fingerprint.
func verify(body []byte, sum uint64) bool {
	return checksum(body) == sum || Fingerprint(body) == sum
}

// MaxFrame bounds a frame so a corrupted length prefix cannot allocate
// unboundedly.  64 MiB is far above any payload the cluster or the spill
// tier produces.
const MaxFrame = 1 << 26

// extend lengthens b, which holds part of a frame of need bytes, before
// the next read: to need itself up to 1 MiB, then by doubling.  Wire
// messages, records and spill blocks are one exact allocation, and a
// length prefix that lies costs at most 1 MiB plus twice the bytes that
// actually arrive, not MaxFrame.
func extend(b []byte, need int) []byte {
	n := min(need, max(2*len(b), 1<<20))
	if n <= cap(b) {
		return b[:n]
	}
	return append(make([]byte, 0, n), b...)[:n]
}

// Append appends one encoded frame to buf and returns the extended
// slice.
func Append(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(payload)+8))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint64(buf, checksum(buf[start+4:]))
}

// Write encodes one frame to w.
func Write(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 0, 4+1+len(payload)+8)
	buf = Append(buf, typ, payload)
	_, err := w.Write(buf)
	return err
}

// Read decodes one frame from r, verifying its trailer.
// io.EOF at a frame boundary is returned verbatim so callers can iterate
// a file of concatenated frames to its end.
func Read(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 || n > MaxFrame {
		return 0, nil, corruptf("frame: length %d out of range", n)
	}
	body := extend(nil, int(n))
	for have := 0; have < int(n); have, body = len(body), extend(body, int(n)) {
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	sum := binary.BigEndian.Uint64(body[n-8:])
	body = body[:n-8]
	if !verify(body, sum) {
		return 0, nil, corruptf("frame: checksum mismatch")
	}
	return body[0], body[1:], nil
}

// ReadAt decodes the frame starting at offset off of f, verifying its
// trailer, and returns its type, payload, and the offset of the byte
// after the frame.  The payload is freshly allocated; callers on a hot
// path use ReadAtInto.
func ReadAt(f io.ReaderAt, off int64) (typ byte, payload []byte, next int64, err error) {
	var buf []byte
	return ReadAtInto(f, off, 0, &buf)
}

// ReadAtInto is ReadAt into a caller-owned buffer: *buf is grown when
// the frame does not fit and handed back for the next call, and the
// returned payload aliases it, so it is valid only until *buf is used
// again.  size is the frame's encoded length when the caller knows it
// (the spill tier's block index does) and 0 otherwise: a correct size
// fetches the whole frame with one f.ReadAt, any other value costs
// further reads for the remainder, never a wrong result.  This is the
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
		return 0, nil, 0, corruptf("frame: length %d out of range at offset %d", n, off)
	}
	need := 4 + int(n)
	for got < need {
		if got < len(b) {
			return 0, nil, 0, shortRead(got, err) // the file ends inside the frame
		}
		b = extend(b, need)
		var more int
		more, err = f.ReadAt(b[got:], off+int64(got))
		got += more
	}
	body := b[4 : need-8]
	if !verify(body, binary.BigEndian.Uint64(b[need-8:])) {
		return 0, nil, 0, corruptf("frame: checksum mismatch at offset %d", off)
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
