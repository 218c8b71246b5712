package valency

import (
	"fmt"
	"runtime"
	"testing"

	"randsync/internal/protocol"
)

// benchWorkerCounts is the scaling ladder: 1, 2, 4, GOMAXPROCS.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if max := runtime.GOMAXPROCS(0); max != 1 && max != 2 && max != 4 {
		counts = append(counts, max)
	}
	return counts
}

// BenchmarkExploreParallel measures the exploration engine on the E11
// workload: the three-counter random-walk protocol at n=3 with a mixed
// input vector, all schedules and coin outcomes, symmetry reduction on.
// The workers dimension exercises the config-level parallel engine, whose
// Stats supply the dedup ratio and retained key bytes.
func BenchmarkExploreParallel(b *testing.B) {
	p := protocol.NewCounterWalk(3)
	inputs := []int64{0, 1, 1}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var configs int
			var dedup, keyBytes float64
			for i := 0; i < b.N; i++ {
				rep := Check(p, inputs, Options{Workers: w, MaxConfigs: 1 << 24})
				if rep.Violation != nil || !rep.Complete {
					b.Fatalf("E11 workload must verify cleanly: %+v", rep)
				}
				configs = rep.Configs
				if rep.Stats != nil {
					keyBytes = float64(rep.Stats.KeyBytes)
					if rep.Stats.Generated > 0 {
						dedup = float64(rep.Stats.DedupHits) / float64(rep.Stats.Generated)
					}
				}
			}
			b.ReportMetric(float64(configs), "configs")
			b.ReportMetric(float64(configs)*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
			b.ReportMetric(dedup, "dedup")
			b.ReportMetric(keyBytes, "keybytes")
		})
	}
}

// BenchmarkExploreAllInputs measures the vector-level fan-out (the
// CheckAllInputs path of the E11 certificate: all 2^3 input vectors).
func BenchmarkExploreAllInputs(b *testing.B) {
	p := protocol.NewCounterWalk(3)
	b.ReportAllocs()
	var configs int
	for i := 0; i < b.N; i++ {
		rep := CheckAllInputs(p, 3, Options{MaxConfigs: 1 << 24})
		if rep.Violation != nil || !rep.Complete {
			b.Fatalf("E11 workload must verify cleanly: %+v", rep)
		}
		configs = rep.Configs
	}
	b.ReportMetric(float64(configs), "configs")
	b.ReportMetric(float64(configs)*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkExploreParallelSingleVector isolates the configuration-level
// engine (no vector fan-out): one mixed input vector of the register
// protocol at n=2, 3 rounds.
func BenchmarkExploreParallelSingleVector(b *testing.B) {
	p := protocol.NewRegisterConsensus(2, 3)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := Check(p, []int64{0, 1}, Options{Workers: w, MaxConfigs: 1 << 24})
				if rep.Violation != nil || !rep.Complete {
					b.Fatalf("register-consensus must verify cleanly: %+v", rep)
				}
			}
		})
	}
}

// BenchmarkCheckCounterWalk measures exhaustive exploration throughput on
// the three-counter protocol (the E4/E6 safety certificates).
func BenchmarkCheckCounterWalk(b *testing.B) {
	p := protocol.NewCounterWalk(2)
	var configs int
	for i := 0; i < b.N; i++ {
		rep := Check(p, []int64{0, 1}, Options{})
		configs = rep.Configs
	}
	b.ReportMetric(float64(configs), "configs")
}

// BenchmarkCheckRegisterConsensus measures the register-protocol
// certificate at n=2, 2 rounds.
func BenchmarkCheckRegisterConsensus(b *testing.B) {
	p := protocol.NewRegisterConsensus(2, 2)
	var configs int
	for i := 0; i < b.N; i++ {
		rep := Check(p, []int64{0, 1}, Options{})
		configs = rep.Configs
	}
	b.ReportMetric(float64(configs), "configs")
}

// BenchmarkBivalence measures the valence analysis (graph + fixpoint).
func BenchmarkBivalence(b *testing.B) {
	p := protocol.NewCounterWalk(2)
	for i := 0; i < b.N; i++ {
		if _, err := Bivalence(p, []int64{0, 1}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
