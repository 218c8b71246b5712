package counting

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSnapshotSequential(t *testing.T) {
	s := NewSnapshot(3)
	if got := s.Scan(); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("initial scan = %v", got)
	}
	s.Update(1, 7)
	s.Update(2, -3)
	got := s.Scan()
	if got[0] != 0 || got[1] != 7 || got[2] != -3 {
		t.Fatalf("scan = %v, want [0 7 -3]", got)
	}
	if s.N() != 3 || s.Registers() != 3 {
		t.Fatalf("N=%d Registers=%d", s.N(), s.Registers())
	}
}

// TestSnapshotScanIsMonotone checks a core linearizability consequence for
// single-writer snapshots: per-cell values observed by a single scanner
// never go backwards while writers only increase their cells.
func TestSnapshotScanIsMonotone(t *testing.T) {
	const writers = 4
	const updates = 2000
	s := NewSnapshot(writers)
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(1); v <= updates; v++ {
				s.Update(w, v)
			}
		}(w)
	}
	go func() { wg.Wait(); close(writersDone) }()

	last := make([]int64, writers)
	for {
		got := s.Scan()
		for j, v := range got {
			if v < last[j] {
				t.Fatalf("cell %d went backwards across scans: %d then %d", j, last[j], v)
			}
			last[j] = v
		}
		select {
		case <-writersDone:
			final := s.Scan()
			for j, v := range final {
				if v != updates {
					t.Fatalf("final scan cell %d = %d, want %d", j, v, updates)
				}
			}
			return
		default:
		}
	}
}

// TestSnapshotCrossScanConsistency: two scans s1 (completed before s2
// starts) must satisfy s1 ≤ s2 pointwise under monotone writers.
func TestSnapshotCrossScanConsistency(t *testing.T) {
	const writers = 3
	s := NewSnapshot(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(1); v <= 500; v++ {
				s.Update(w, v)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		a := s.Scan()
		b := s.Scan()
		for j := range a {
			if b[j] < a[j] {
				t.Fatalf("later scan smaller: %v then %v", a, b)
			}
		}
	}
	wg.Wait()
}

func TestSnapshotCounterConcurrent(t *testing.T) {
	const procs, each = 6, 200
	c := NewSnapshotCounter(procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc(p)
			}
			for i := 0; i < each/2; i++ {
				c.Dec(p)
			}
		}(p)
	}
	wg.Wait()
	if got := c.Read(0); got != procs*each/2 {
		t.Fatalf("counter = %d, want %d", got, procs*each/2)
	}
	if c.Registers() != procs {
		t.Fatalf("registers = %d, want %d (O(n) claim)", c.Registers(), procs)
	}
}

// TestSnapshotCounterNeverExceedsBounds: with only increments, every
// concurrent read lies between 0 and the total, and reads by one process
// are monotone (a consequence of scan linearizability).
func TestSnapshotCounterReadsMonotone(t *testing.T) {
	const procs, each = 4, 300
	c := NewSnapshotCounter(procs + 1) // last slot is the reader
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc(p)
			}
		}(p)
	}
	var last int64 = -1
	bad := false
	for i := 0; i < 500 && !bad; i++ {
		v := c.Read(procs)
		if v < last || v < 0 || v > procs*each {
			bad = true
		}
		last = v
	}
	wg.Wait()
	if bad {
		t.Fatal("snapshot counter reads not monotone or out of bounds")
	}
	if got := c.Read(procs); got != procs*each {
		t.Fatalf("final = %d, want %d", got, procs*each)
	}
}

// TestSnapshotQuickSequential property: any sequence of single-writer
// updates followed by a scan returns exactly the last value per cell.
func TestSnapshotQuickSequential(t *testing.T) {
	f := func(updates []int8) bool {
		const n = 4
		s := NewSnapshot(n)
		want := make([]int64, n)
		for k, u := range updates {
			cell := k % n
			want[cell] = int64(u)
			s.Update(cell, int64(u))
		}
		got := s.Scan()
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
