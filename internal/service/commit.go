package service

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"randsync/internal/frame"
)

// The commit path: how a job transition decided under s.mu becomes a
// durable job record without the lock ever covering the disk.
//
// A transition mutates j.st under s.mu and calls persistLocked, which
// snapshots the status and hands it to the job's record writer — one
// goroutine per job at a time, because frame.WriteFileAtomic stages at
// the fixed name job.rec.tmp and so allows one writer per path.  The
// writer marshals, creates the directory, writes and fsyncs with the
// lock released, then re-enters it to run the commit's continuation:
// publish the state, enqueue the job, or undo a refused submission.  A
// snapshot handed over while an older one still waits for the writer
// replaces it (the record only ever needs the newest state); one whose
// write has started is followed, never interrupted.  A replaced
// snapshot's continuation never runs, so only transitions nothing can
// follow before they land carry one: a submission (every other entry
// point waits for the job to settle first) and a terminal state.

// commit is one snapshot on its way to job.rec.
type commit struct {
	st    JobStatus
	since time.Time // when it was handed over; commit latency runs from here
	// then, when set, runs under s.mu once the write has been attempted,
	// with the snapshot and the write's error; a commit without one was
	// published when it was handed over and is written behind.
	then func(st *JobStatus, err error)
}

// persistStats counts the commit path's work; guarded by s.mu.
type persistStats struct {
	writes     int64 // records written (attempted) by the writers
	superseded int64 // snapshots replaced by a newer one before their write began
	last, max  time.Duration
}

// PersistHealth is the disk's slice of the health report: how many
// records and artifacts the daemon wrote and how long a commit takes, so
// "is the disk the bottleneck" is answerable from the daemon.
type PersistHealth struct {
	// RecordWrites counts job records written; RecordSuperseded counts
	// snapshots a newer one replaced before their write began.
	RecordWrites     int64 `json:"recordWrites"`
	RecordSuperseded int64 `json:"recordSuperseded"`
	// StorePuts counts artifacts written, StoreDedups Puts answered by an
	// identical file already on disk, StoreCoalesced Puts that joined a
	// concurrent write of the same document.
	StorePuts      int64 `json:"storePuts"`
	StoreDedups    int64 `json:"storeDedups"`
	StoreCoalesced int64 `json:"storeCoalesced"`
	// LastCommitMicros and MaxCommitMicros time a job record from the
	// transition that produced it to the record being on disk.
	LastCommitMicros int64 `json:"lastCommitMicros"`
	MaxCommitMicros  int64 `json:"maxCommitMicros"`
}

func (p *persistStats) health(stored StoreStats) PersistHealth {
	return PersistHealth{
		RecordWrites:     p.writes,
		RecordSuperseded: p.superseded,
		StorePuts:        stored.Puts,
		StoreDedups:      stored.Dedups,
		StoreCoalesced:   stored.Coalesced,
		LastCommitMicros: p.last.Microseconds(),
		MaxCommitMicros:  p.max.Microseconds(),
	}
}

// publishLocked makes st the job's visible status and wakes the event
// streams.
func (s *Server) publishLocked(j *job, st *JobStatus) {
	j.pub = *st
	j.ver++
	s.events.Broadcast()
}

// persistLocked hands j's current status to its record writer.  With a
// nil continuation the status is published now and the record follows
// behind; otherwise then decides, under s.mu, what the landed (or
// failed) write means.  Callers hold s.mu; nothing here touches the
// disk.
func (s *Server) persistLocked(j *job, then func(st *JobStatus, err error)) {
	if j.next != nil {
		s.persist.superseded++
	}
	j.next = &commit{st: j.st, since: time.Now(), then: then}
	if then == nil {
		s.publishLocked(j, &j.st)
	}
	if !j.writing {
		j.writing = true
		s.writers++
		go s.writeRecords(j) // exits once j.next stays empty; Close waits on s.writers
	}
}

// writeRecords is a job's record writer: it drains j.next, one write at
// a time, holding s.mu only between writes.
func (s *Server) writeRecords(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j.next != nil {
		c := j.next
		j.next = nil
		mkdir := !j.hasDir
		s.mu.Unlock()
		err := s.writeRecord(&c.st, mkdir)
		s.mu.Lock()
		if err == nil {
			j.hasDir = true
		} else {
			s.cfg.Logf("service: persist job %s: %v", c.st.ID, err)
		}
		s.persist.writes++
		s.persist.last = time.Since(c.since)
		if s.persist.last > s.persist.max {
			s.persist.max = s.persist.last
		}
		if c.then != nil {
			c.then(&c.st, err)
			s.idle.Broadcast()
		}
	}
	j.writing = false
	s.writers--
	s.idle.Broadcast()
}

// writeRecord writes one job record atomically.  A handful of attempts
// ride out transient disk faults; WriteFileAtomic makes the retry safe
// (the previous record survives a failed attempt intact).  Called with
// s.mu released, by the job's one writer.
func (s *Server) writeRecord(st *JobStatus, mkdir bool) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	dir := s.jobDir(st.ID)
	path := filepath.Join(dir, "job.rec")
	for attempt := 0; attempt < 4; attempt++ {
		if mkdir {
			if err = s.cfg.FS.MkdirAll(dir); err != nil {
				err = fmt.Errorf("service: create job dir: %w", err)
				continue
			}
			mkdir = false
		}
		if err = frame.WriteFileAtomic(s.cfg.FS, path, func(w io.Writer) error {
			return frame.Write(w, frameJob, payload)
		}); err == nil {
			break
		}
	}
	return err
}

// settledLocked returns job id once none of its records is in flight
// (nil if the table does not hold it), so the caller acts on — and
// answers with — a state the disk already has.  It waits on s.idle, so
// s.mu is released while it blocks.
func (s *Server) settledLocked(id string) *job {
	for {
		j := s.jobs[id]
		if j == nil || !j.writing {
			return j
		}
		s.idle.Wait()
	}
}
