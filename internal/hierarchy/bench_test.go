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
// allocates nothing.  The enumeration's tables are scratch, valid only
// during the callback, so each is collected as an owned copy.
func BenchmarkSoloFilter(b *testing.B) {
	typ := object.StickyBitType{}
	var tables [][]machineState
	enumerateSubtree(typ, buildSpecs(stickyDomain, 4), 2, nil, 0, nil, func(m Machine) {
		if m.Start0 == 0 && m.Start1 == 0 {
			tables = append(tables, m.owned().states)
		}
	})
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

// BenchmarkTinySweep runs exactly the benchmark's tiny-sweep op — the
// sticky-bit search and then the register search, two free states each,
// at Workers: 1 — so the workload can be profiled in-tree
// (-cpuprofile).  It fails on any census but 36 864 / 36 and 20 736 / 0.
func BenchmarkTinySweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			typ                 object.Type
			enumerated, solvers int
		}{
			{object.StickyBitType{}, 36864, 36},
			{object.RegisterType{}, 20736, 0},
		} {
			res, err := SearchWith(tc.typ, 2, Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Enumerated != tc.enumerated || res.Solvers != tc.solvers {
				b.Fatalf("%s census %d / %d, want %d / %d", tc.typ.Name(),
					res.Enumerated, res.Solvers, tc.enumerated, tc.solvers)
			}
		}
	}
}
