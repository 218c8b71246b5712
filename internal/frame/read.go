package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync/atomic"
	"time"
)

// ErrCorrupt is wrapped by every error that reports bytes which are not
// what their writer wrote: a bad length prefix, a checksum mismatch, a
// file cut short or followed by trailing bytes, a frame of the wrong
// type, or a checksum-valid payload that does not decode.  An error that
// does not wrap it is an I/O failure.
var ErrCorrupt = errors.New("frame: corrupt")

// corruptError is an error about the bytes themselves; it keeps its own
// words and still satisfies errors.Is(err, ErrCorrupt).
type corruptError string

func (e corruptError) Error() string      { return string(e) }
func (corruptError) Is(target error) bool { return target == ErrCorrupt }

func corruptf(format string, a ...any) error { return corruptError(fmt.Sprintf(format, a...)) }

// Attempts and Backoff are the retry policy of every disk operation in
// the repo: up to Attempts tries, sleeping Backoff times the retry's
// ordinal before each retry (2, 4, 6 ms).  A fault that outlasts them is
// unrecoverable.
const (
	Attempts = 4
	Backoff  = 2 * time.Millisecond
)

// Retry runs op until it succeeds or Attempts tries have failed, and
// returns nil or the last try's error.  Each retry is counted into
// retries when it is non-nil.  A retry is safe wherever op's effect is
// all-or-nothing, which is what WriteFileAtomic and ReadFile guarantee.
func Retry(retries *atomic.Int64, op func() error) error {
	err := op()
	for attempt := 1; err != nil && attempt < Attempts; attempt++ {
		if retries != nil {
			retries.Add(1)
		}
		time.Sleep(Backoff * time.Duration(attempt))
		err = op()
	}
	return err
}

// ReadFile reads path, which must hold exactly one intact frame of type
// typ and nothing after it, and returns the frame's payload.
//
// A missing file costs one Open and returns an error wrapping
// fs.ErrNotExist, never retried: no file is an answer, not a fault.
// Any other failure is retried under Retry, counting into retries,
// because a transient read fault is indistinguishable from a torn file
// on one attempt and refusing a durable record is permanent for the
// caller.  What still fails is returned wrapping ErrCorrupt when the
// bytes are wrong, and as the I/O error otherwise; the error does not
// name path, since every caller names its record in its own words.
func ReadFile(fsys FS, path string, typ byte, retries *atomic.Int64) ([]byte, error) {
	var payload []byte
	var missing error
	err := Retry(retries, func() error {
		var err error
		payload, err = readFile(fsys, path, typ)
		if errors.Is(err, fs.ErrNotExist) {
			missing = err
			return nil
		}
		return err
	})
	if missing != nil {
		return nil, missing
	}
	return payload, err
}

// readFile is one attempt of ReadFile.
func readFile(fsys FS, path string, typ byte) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, payload, err := Read(f)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return nil, corruptf("frame: truncated file")
	case err != nil:
		return nil, err // ErrCorrupt from Read, or the I/O error
	case t != typ:
		return nil, corruptf("frame: file holds frame type %#x, want %#x", t, typ)
	}
	var one [1]byte
	if n, err := f.Read(one[:]); n != 0 {
		return nil, corruptf("frame: trailing bytes after the file's frame")
	} else if err != nil && err != io.EOF {
		return nil, err
	}
	return payload, nil
}

// Reader decodes one frame payload with sticky-error semantics: after
// the first failure every read returns a zero value and Err reports that
// failure, so a decoder reads straight through and checks once.  Each
// read names what it reads, and the name is what a failure reports.
type Reader struct {
	b    []byte
	fail error
}

// NewReader returns a Reader over payload p.  Decoded byte strings alias
// p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

func (r *Reader) truncated(what string) {
	if r.fail == nil {
		r.fail = corruptf("truncated %s in payload", what)
	}
	r.b = nil
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint(what string) uint64 { return readVarint(r, what, binary.Uvarint) }

// Varint reads one signed varint.
func (r *Reader) Varint(what string) int64 { return readVarint(r, what, binary.Varint) }

func readVarint[T uint64 | int64](r *Reader, what string, decode func([]byte) (T, int)) T {
	if r.fail != nil {
		return 0
	}
	v, n := decode(r.b)
	if n <= 0 {
		r.truncated(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Fixed64 reads one big-endian 8-byte word.
func (r *Reader) Fixed64(what string) uint64 {
	if r.fail != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.truncated(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Bytes reads one uvarint-length-prefixed byte string.  The result
// aliases the payload, capped so an append cannot overwrite what
// follows it.
func (r *Reader) Bytes(what string) []byte {
	n := r.Uvarint(what)
	if r.fail != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.truncated(what)
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// Count reads an element count.  Every element takes at least one byte,
// so a count above the bytes left is refused: a count from a file is
// bounded by the file before anything is sized by it.
func (r *Reader) Count(what string) int {
	n := r.Uvarint(what)
	if r.fail != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail = corruptf("%s %d exceeds the %d bytes left in payload", what, n, len(r.b))
		r.b = nil
		return 0
	}
	return int(n)
}

// Rest returns the bytes not yet read and consumes them: the tail of a
// payload whose format belongs to another layer.  After a failure it
// returns nil.
func (r *Reader) Rest() []byte {
	s := r.b
	r.b = nil
	return s
}

// Err reports the first failure, or trailing bytes when every read
// succeeded but the payload was not consumed: a decoder that stops
// short has misread the format.
func (r *Reader) Err() error {
	if r.fail != nil {
		return r.fail
	}
	if len(r.b) != 0 {
		return corruptf("%d trailing bytes in payload", len(r.b))
	}
	return nil
}
