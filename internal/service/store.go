package service

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"strings"
	"sync"

	"randsync/internal/frame"
)

// frameArtifact is the frame type of one stored artifact: the document
// travels inside the standard [len][type][payload][fingerprint]
// envelope, so truncation and bit rot are detected on every read.
const frameArtifact byte = 0x41 // 'A'

// ErrNotFound reports a Get for an artifact the store does not hold.
var ErrNotFound = errors.New("service: artifact not found")

// Store is the content-addressed artifact store: a flat directory of
// frame-wrapped documents addressed by the FNV-1a 64 fingerprint of
// their bytes (sixteen lowercase hex digits) — the same hash the
// visited set fingerprints keys with and the frame envelope verifies
// payloads with.  Identical documents share one file, so a duplicate
// submission, a re-run after a crash, and a second tenant's copy of the
// same logical job all dedup to a single stored verdict.
//
// Every operation goes through the frame.FS seam, so the kill drills
// can interpose fault.DiskChaos; writes use WriteFileAtomic, so a crash
// mid-Put leaves either the previous file or the new one, never a torn
// artifact.  Get re-derives the address from the payload on the way
// out: a file renamed to the wrong hash can never serve the wrong
// document.
//
// The mutex guards the counters and the table of writes in flight and
// is never held across a filesystem call: a Get takes no lock at all,
// Puts of different documents overlap on the disk, and concurrent Puts
// of one document share a single write — which is also what keeps
// WriteFileAtomic's one-writer-per-path rule.
type Store struct {
	dir string
	fs  frame.FS

	mu       sync.Mutex
	inflight map[string]*putCall // Puts writing right now, by hash
	stats    StoreStats
	swept    int64 // orphaned temp files removed at open
}

// StoreStats counts what the store's Puts came to.
type StoreStats struct {
	Puts      int64 // documents actually written
	Dedups    int64 // Puts answered by an existing identical file
	Coalesced int64 // Puts that joined a concurrent Put of the same document
}

// putCall is one write in flight; followers wait on done and share the
// leader's outcome.
type putCall struct {
	done chan struct{}
	err  error
}

// NewStore opens (creating if needed) the artifact store rooted at dir
// and sweeps any orphaned write-temporaries: WriteFileAtomic stages
// every Put at <hash>.art.tmp before the rename, so a kill between the
// two leaves a stray .tmp that is never an artifact — deleting it is
// always safe and keeps the directory from accreting garbage across
// crash/restart cycles.  The sweep is best-effort: a file that cannot
// be removed is skipped, not fatal.
func NewStore(dir string, fsys frame.FS) (*Store, error) {
	if fsys == nil {
		fsys = frame.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("service: create artifact dir: %w", err)
	}
	s := &Store{dir: dir, fs: fsys, inflight: make(map[string]*putCall)}
	if ents, err := fsys.ReadDir(dir); err == nil {
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
				continue
			}
			if fsys.Remove(filepath.Join(dir, e.Name())) == nil {
				s.swept++
			}
		}
	}
	return s, nil
}

// Swept reports how many orphaned temp files the open-time sweep
// removed.
func (s *Store) Swept() int64 { return s.swept }

// ArtifactHash is the content address of a document: its FNV-1a 64
// fingerprint as sixteen lowercase hex digits.
func ArtifactHash(payload []byte) string {
	return fmt.Sprintf("%016x", frame.Fingerprint(payload))
}

// ValidArtifactHash reports whether h is syntactically a store address.
func ValidArtifactHash(h string) bool {
	if len(h) != 16 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(hash string) string { return filepath.Join(s.dir, hash+".art") }

// Put stores the document and returns its address.  created reports
// whether this call wrote a file: an identical document already present
// is the dedup hit, a Put that finds the same document being written
// waits for that write and shares its outcome, and a present-but-
// unreadable file (a torn write a crashed process left behind pre-rename
// would never be visible, but a corrupted disk block might) is silently
// repaired by rewriting.
func (s *Store) Put(payload []byte) (hash string, created bool, err error) {
	hash = ArtifactHash(payload)
	s.mu.Lock()
	if c := s.inflight[hash]; c != nil {
		s.stats.Coalesced++
		s.mu.Unlock()
		<-c.done
		return hash, false, c.err
	}
	c := &putCall{done: make(chan struct{})}
	s.inflight[hash] = c
	s.mu.Unlock()

	created, c.err = s.put(hash, payload)

	s.mu.Lock()
	delete(s.inflight, hash)
	switch {
	case c.err != nil:
	case created:
		s.stats.Puts++
	default:
		s.stats.Dedups++
	}
	s.mu.Unlock()
	close(c.done)
	return hash, created, c.err
}

// put is the leader's half of Put, run with no lock held.
func (s *Store) put(hash string, payload []byte) (created bool, err error) {
	if _, err := s.Get(hash); err == nil {
		// Content addressing makes the equality check implicit: a file at
		// this address that passes frame and address verification IS this
		// payload.
		return false, nil
	}
	err = frame.WriteFileAtomic(s.fs, s.path(hash), func(w io.Writer) error {
		return frame.Write(w, frameArtifact, payload)
	})
	if err != nil {
		return false, fmt.Errorf("service: store artifact %s: %w", hash, err)
	}
	return true, nil
}

// Get returns the document stored at hash, verifying both the frame
// fingerprint and that the payload re-derives the address.  It takes no
// lock: the rename that lands an artifact is atomic, so a Get racing a
// Put sees the finished file or none.
func (s *Store) Get(hash string) ([]byte, error) {
	if !ValidArtifactHash(hash) {
		return nil, fmt.Errorf("service: invalid artifact hash %q", hash)
	}
	f, err := s.fs.Open(s.path(hash))
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Corruption errors name the offending file: an operator staring at
	// a tamper report should not have to reconstruct the path from the
	// hash and the store layout.
	typ, payload, err := frame.Read(f)
	if err != nil {
		return nil, fmt.Errorf("service: artifact %s (%s) is corrupt: %w", hash, s.path(hash), err)
	}
	if typ != frameArtifact {
		return nil, fmt.Errorf("service: artifact %s (%s) has frame type %#x", hash, s.path(hash), typ)
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("service: artifact %s (%s) has trailing bytes", hash, s.path(hash))
	}
	if ArtifactHash(payload) != hash {
		return nil, fmt.Errorf("service: artifact %s (%s) fails content verification", hash, s.path(hash))
	}
	return payload, nil
}

// Stats reports what the store's Puts came to so far.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
