package counting

import (
	"sync"
	"testing"
)

// BenchmarkSnapshotScan measures uncontended scans at various widths.
func BenchmarkSnapshotScan(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(benchName(n), func(b *testing.B) {
			s := NewSnapshot(n)
			for i := 0; i < b.N; i++ {
				s.Scan()
			}
		})
	}
}

// BenchmarkSnapshotUpdateContended measures updates (each embedding a
// scan) under write contention.
func BenchmarkSnapshotUpdateContended(b *testing.B) {
	const writers = 4
	s := NewSnapshot(writers)
	var wg sync.WaitGroup
	each := b.N/writers + 1
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Update(w, int64(i))
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSnapshotCounter measures one increment and one read of the
// linearizable counter (E9 context).
func BenchmarkSnapshotCounter(b *testing.B) {
	c := NewSnapshotCounter(8)
	for i := 0; i < b.N; i++ {
		c.Inc(0)
		c.Read(0)
	}
}

func benchName(n int) string {
	return "n=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}
