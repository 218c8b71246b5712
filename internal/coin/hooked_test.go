package coin_test

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"randsync/internal/coin"
	"randsync/internal/fault"
	"randsync/internal/runtime"
)

// TestHookedPositionFires verifies the hook runs before every cursor
// operation, on the operating process's goroutine.
func TestHookedPositionFires(t *testing.T) {
	var fired atomic.Int64
	pos := coin.HookedPosition{
		Pos:    coin.CounterPosition{C: runtime.NewCounter(nil)},
		Before: func(proc int) { fired.Add(1) },
	}
	pos.Add(0, 2)
	pos.Read(1)
	if got := fired.Load(); got != 2 {
		t.Fatalf("hook fired %d times, want 2 (once per Add and Read)", got)
	}
}

// TestCrashedWalkerSurvivorsAbsorb is the coin-layer chaos certificate:
// with one walker crash-stopped mid-walk (its in-flight move cleanly
// lost), the surviving walkers still drive the cursor to an absorbing
// barrier on their own — the weak shared coin is wait-free.
func TestCrashedWalkerSurvivorsAbsorb(t *testing.T) {
	const n, k = 4, 2
	for seed := uint64(1); seed <= 8; seed++ {
		inj := fault.NewInjector(n, fault.SingleCrash(0, int64(seed%13)), 0)
		c := coin.New(coin.HookedPosition{
			Pos:    coin.CounterPosition{C: runtime.NewCounter(nil)},
			Before: inj.Point,
		}, n, k)

		outcomes := make([]int64, n)
		absorbed := make([]bool, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer func() { recover() }() // crash-stop for the victim
				rng := rand.New(rand.NewPCG(seed, uint64(p)))
				outcomes[p], _ = c.Flip(p, rng)
				absorbed[p] = true
			}(p)
		}
		wg.Wait()

		for p := 1; p < n; p++ {
			if !absorbed[p] {
				t.Fatalf("seed %d: surviving walker P%d never absorbed", seed, p)
			}
			if outcomes[p] != 0 && outcomes[p] != 1 {
				t.Fatalf("seed %d: P%d outcome %d outside {0,1}", seed, p, outcomes[p])
			}
		}
		// The victim either absorbed early (peers finished the walk while
		// it had taken at most AtOp cursor ops) or crashed at exactly
		// AtOp+1; it can never run past its crash point.
		if inj.Steps(0) > int64(seed%13)+1 {
			t.Fatalf("seed %d: P0 ran %d ops past its crash point @%d", seed, inj.Steps(0), seed%13)
		}
		if !absorbed[0] && inj.Steps(0) != int64(seed%13)+1 {
			t.Fatalf("seed %d: P0 crashed at %d ops, want %d", seed, inj.Steps(0), seed%13+1)
		}
	}
}
