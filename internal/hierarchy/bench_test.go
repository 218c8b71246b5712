package hierarchy

import (
	"fmt"
	"runtime"
	"testing"

	"randsync/internal/object"
)

// benchWorkerCounts is the scaling ladder: 1, 2, 4, GOMAXPROCS.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if max := runtime.GOMAXPROCS(0); max != 1 && max != 2 && max != 4 {
		counts = append(counts, max)
	}
	return counts
}

// BenchmarkExploreParallel measures the protocol-space search (each of
// the ~37k sticky-bit machines model checked for 2-process consensus)
// across worker counts.  Per-machine checks are independent, so this
// fans out near-linearly on real cores.
func BenchmarkExploreParallel(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var enumerated int
			for i := 0; i < b.N; i++ {
				res, err := SearchWith(object.StickyBitType{}, 2, Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if res.Solvers == 0 {
					b.Fatal("sticky search must find solvers")
				}
				enumerated = res.Enumerated
			}
			b.ReportMetric(float64(enumerated), "machines")
			b.ReportMetric(float64(enumerated)*float64(b.N)/b.Elapsed().Seconds(), "machines/s")
		})
	}
}

// BenchmarkSoloFilter measures the search's prefilter alone: every
// compiled table of the sticky-bit class (two free states, 9 216 tables)
// loaded into one solo filter, one solo walk per free state.  It
// allocates nothing.
func BenchmarkSoloFilter(b *testing.B) {
	typ := object.StickyBitType{}
	var tables [][]machineState
	enumerateSubtree(typ, buildSpecs(stickyDomain, 4), 2, nil, 0,
		func(states []machineState) { tables = append(tables, states) }, func(Machine) {})
	f := newSoloFilter(typ, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, states := range tables {
			f.load(states)
		}
	}
	b.ReportMetric(float64(len(tables))*float64(b.N)/b.Elapsed().Seconds(), "tables/s")
}
