// Package counting implements shared counters from read-write registers,
// the substrate cited by the paper for "deterministic counter
// implementations using O(n) read-write registers [9, 30]" and used by the
// Theorem 2.1 composition experiment (E9): a counter built from n
// registers plugged into counter-based consensus multiplies the object
// counts.
//
// SnapshotCounter is linearizable, built on a single-writer atomic
// snapshot (Afek, Attiya, Dolev, Gafni, Merritt, Shavit [3]) with
// helping, so both Inc and Read are wait-free.  It uses n registers (the
// paper's registers may hold values from any set, so a register holding a
// (value, sequence, embedded-view) triple is one object).
package counting

import (
	"sync/atomic"
)

// view is the immutable content of one snapshot cell.
type view struct {
	value    int64
	seq      int64
	embedded []int64 // the writer's scan at update time, for helping
}

// Snapshot is an n-cell single-writer atomic snapshot object [3].
//
// Each cell is written only by its owning process (Update's i); Scan
// returns values of all cells as they simultaneously were at some instant
// within the call (linearizability).  Both operations are wait-free: a
// scanner that observes some cell move twice adopts that writer's embedded
// scan, which was taken entirely within the scanner's interval.
type Snapshot struct {
	cells []atomic.Pointer[view]
}

// NewSnapshot returns a snapshot with n cells, all zero.
func NewSnapshot(n int) *Snapshot {
	s := &Snapshot{cells: make([]atomic.Pointer[view], n)}
	zero := &view{}
	for i := range s.cells {
		s.cells[i].Store(zero)
	}
	return s
}

// N returns the number of cells.
func (s *Snapshot) N() int { return len(s.cells) }

// Registers returns the number of read-write registers the implementation
// uses — one per cell — for the space-accounting experiments.
func (s *Snapshot) Registers() int { return len(s.cells) }

// Update sets cell i to v.  Only the owner of cell i may call it (single-
// writer); concurrent Updates to distinct cells are fine.
func (s *Snapshot) Update(i int, v int64) {
	embedded := s.Scan()
	old := s.cells[i].Load()
	s.cells[i].Store(&view{value: v, seq: old.seq + 1, embedded: embedded})
}

// collect reads all cells once.
func (s *Snapshot) collect() []*view {
	out := make([]*view, len(s.cells))
	for i := range s.cells {
		out[i] = s.cells[i].Load()
	}
	return out
}

// Scan returns an atomic view of all cell values.
func (s *Snapshot) Scan() []int64 {
	n := len(s.cells)
	first := s.collect()
	prev := first
	for {
		cur := s.collect()
		same := true
		for j := 0; j < n; j++ {
			if prev[j].seq != cur[j].seq {
				same = false
			}
			if cur[j].seq >= first[j].seq+2 {
				// Cell j was updated at least twice since our first
				// collect read it, so its latest update began — and took
				// its embedded scan — entirely within our interval; that
				// view is a legal result (the helping rule of [3]).
				return append([]int64(nil), cur[j].embedded...)
			}
		}
		if same {
			// Two identical consecutive collects: no update was concurrent
			// with the second, so it is an atomic view.
			values := make([]int64, n)
			for j, c := range cur {
				values[j] = c.value
			}
			return values
		}
		prev = cur
	}
}

// SnapshotCounter is a linearizable counter for n processes built from n
// read-write registers via Snapshot: process i's increments and decrements
// accumulate in cell i, and Read sums an atomic scan.
type SnapshotCounter struct {
	snap *Snapshot
	// local[i] is process i's last written value; only process i accesses
	// it, so plain storage suffices (single-writer discipline).
	local []int64
}

// NewSnapshotCounter returns a counter for n processes.
func NewSnapshotCounter(n int) *SnapshotCounter {
	return &SnapshotCounter{snap: NewSnapshot(n), local: make([]int64, n)}
}

// Registers returns the number of read-write registers used.
func (c *SnapshotCounter) Registers() int { return c.snap.Registers() }

// Inc increments the counter on behalf of process i.
func (c *SnapshotCounter) Inc(i int) {
	c.local[i]++
	c.snap.Update(i, c.local[i])
}

// Dec decrements the counter on behalf of process i.
func (c *SnapshotCounter) Dec(i int) {
	c.local[i]--
	c.snap.Update(i, c.local[i])
}

// Read returns the counter value: the sum of an atomic snapshot.
func (c *SnapshotCounter) Read(i int) int64 {
	var sum int64
	for _, v := range c.snap.Scan() {
		sum += v
	}
	return sum
}
