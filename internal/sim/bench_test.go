package sim

import "testing"

// BenchmarkStep measures raw simulator stepping.
func BenchmarkStep(b *testing.B) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.Clone()
		for pid := 0; pid < 2; pid++ {
			for d.Pending(pid).Kind != ActHalt {
				if _, err := d.Step(pid, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSoloTerminate measures the solo-termination search, with its
// execution (terminate) and decision-only (decision), on a straight run
// (write-read, whose value-typed states allocate on every Advance) and on
// a run that backtracks over two flips (retry, whose table states do not,
// so -benchmem shows the walk's own allocations alone), within the
// protocol-space search's 64-step prefilter budget.
func BenchmarkSoloTerminate(b *testing.B) {
	for _, w := range []struct {
		name  string
		proto Protocol
	}{
		{"write-read", writeReadProto{}},
		{"retry", newRetryProto(false)},
	} {
		c := NewConfig(w.proto, []int64{0, 1})
		b.Run("terminate/"+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := SoloTerminate(c, 0, 64); !ok {
					b.Fatal("no termination")
				}
			}
		})
		b.Run("decision/"+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := SoloDecision(c, 0, 64); !ok {
					b.Fatal("no termination")
				}
			}
		})
	}
}

// BenchmarkKey measures configuration hashing (the model checker's inner
// loop cost).
func BenchmarkKey(b *testing.B) {
	c := NewConfig(writeReadProto{}, []int64{0, 1, 0, 1})
	for i := 0; i < b.N; i++ {
		_ = c.Key()
	}
}

// BenchmarkExploreStepClone measures the baseline DFS edge: clone the
// configuration, step the copy.
func BenchmarkExploreStepClone(b *testing.B) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := c.Clone()
		if _, err := d.Step(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreStepCOW measures the copy-on-write DFS edge: step in
// place, undo on backtrack (the one remaining alloc is the successor
// state's interface boxing in Advance).
func BenchmarkExploreStepCOW(b *testing.B) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	var u StepUndo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.StepInto(0, 0, &u); err != nil {
			b.Fatal(err)
		}
		c.UndoStep(&u)
	}
}
