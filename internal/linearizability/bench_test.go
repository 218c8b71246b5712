package linearizability

import (
	"sync"
	"testing"

	"randsync/internal/object"
	"randsync/internal/runtime"
)

// BenchmarkCheck measures the Wing–Gold search on a contended 24-op
// counter history.
func BenchmarkCheck(b *testing.B) {
	rec := &runtime.Recorder{}
	c := runtime.NewObject(object.CounterType{}, rec)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				c.Do(p, inc)
				c.Read(p)
			}
		}(p)
	}
	wg.Wait()
	ops := rec.Ops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Check(object.CounterType{}, ops)
		if err != nil || !res.Linearizable {
			b.Fatal("check failed")
		}
	}
}
