package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync/atomic"
)

// ErrCannotResume is matched by every refusal to resume saved state
// this build cannot use (corrupt, another format version, another job,
// or state the caller finds inconsistent), whose text it leaves alone:
// a caller that keeps the job's spec may delete the state and start
// over.  A failed read does not match; a retry may heal it.
var ErrCannotResume = errors.New("frame: saved state cannot be resumed")

// CannotResume marks err as a refusal to resume: the result matches
// ErrCannotResume and reads and unwraps as err.
func CannotResume(err error) error { return cannotResume{err} }

type cannotResume struct{ error }

func (e cannotResume) Is(target error) bool { return target == ErrCannotResume }
func (e cannotResume) Unwrap() error        { return e.error }

// Record is one resume record: a file holding exactly one frame of type
// Type whose payload starts with uvarint Version, the body format, and
// uvarint Job, the fingerprint of everything that determines the saved
// run.  The spill manifest, the all-inputs vector cursor and the cluster
// coordinator's snapshot are records, so one rule decides whether saved
// state resumes.  Name is how errors name the record, package prefix
// included ("dist: checkpoint"); a nil FS is the real disk; Retries,
// when non-nil, counts the retried disk operations.
type Record struct {
	FS      FS
	Path    string
	Type    byte
	Version uint64
	Job     uint64
	Name    string
	Retries *atomic.Int64
}

// Write durably replaces the record, under Retry: appendBody appends
// the body to the version and job header it is handed.
func (rc Record) Write(appendBody func(b []byte) []byte) error {
	b := binary.AppendUvarint(nil, rc.Version)
	b = appendBody(binary.AppendUvarint(b, rc.Job))
	return Retry(rc.Retries, func() error {
		return WriteFileAtomic(OrOS(rc.FS), rc.Path, func(w io.Writer) error { return Write(w, rc.Type, b) })
	})
}

// Read loads the record and hands decode a Reader over its body, the
// payload after the header.  The bool reports whether the file was
// read: a missing file is a fresh start, (false, nil), and a read that
// still fails after Retry is (false, the I/O error).  Everything else
// that stops the record from resuming is a refusal matching
// ErrCannotResume, with true: bytes that are not one intact frame of
// Type, another Version, another Job, a body decode does not consume
// exactly, or an error decode returns.
func (rc Record) Read(decode func(r *Reader) error) (bool, error) {
	payload, err := ReadFile(OrOS(rc.FS), rc.Path, rc.Type, rc.Retries)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return false, nil
	case errors.Is(err, ErrCorrupt):
		return true, CannotResume(fmt.Errorf("%s is corrupt or truncated (%w); refusing to resume — delete %s to restart from scratch", rc.Name, err, rc.Path))
	case err != nil:
		return false, fmt.Errorf("%s: %w", rc.Name, err)
	}
	r := NewReader(payload)
	if v := r.Uvarint("version"); r.fail == nil && v != rc.Version {
		return true, CannotResume(fmt.Errorf("%s version %d, want %d", rc.Name, v, rc.Version))
	}
	if h := r.Uvarint("job hash"); r.fail == nil && h != rc.Job {
		return true, CannotResume(fmt.Errorf("%s was written by a different job; refusing to resume", rc.Name))
	}
	if r.fail == nil {
		err = decode(r)
	}
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return true, CannotResume(fmt.Errorf("%s: %w; refusing to resume", rc.Name, err))
	}
	return true, nil
}

// Remove deletes the record, best-effort.
func (rc Record) Remove() { OrOS(rc.FS).Remove(rc.Path) }
