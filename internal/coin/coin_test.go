package coin

import (
	"math/rand/v2"
	"sync"
	"testing"

	"randsync/internal/counting"
	"randsync/internal/object"
	"randsync/internal/runtime"
)

// runTrial runs one shared-coin instance with n concurrent processes and
// reports the outcomes and total moves.
func runTrial(t *testing.T, n int, mk func() Position, seed uint64) ([]int64, int) {
	t.Helper()
	c := New(mk(), n, 4)
	outcomes := make([]int64, n)
	movesTotal := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(p)))
			out, moves := c.Flip(p, rng)
			mu.Lock()
			outcomes[p] = out
			movesTotal += moves
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	return outcomes, movesTotal
}

func positions() map[string]func(n int) func() Position {
	return map[string]func(n int) func() Position{
		"counter": func(n int) func() Position {
			return func() Position { return counterPosition() }
		},
		"fetchadd": func(n int) func() Position {
			return func() Position { return FetchAddPosition{F: runtime.NewObject(object.FetchAddType{}, nil)} }
		},
		"collect": func(n int) func() Position {
			return func() Position { return CollectPosition{C: counting.NewCollectCounter(n)} }
		},
	}
}

// TestFlipTerminatesAndAgreesOften: the coin must terminate, and across
// trials all processes must frequently agree (weak shared coin property).
// With barrier 4n and benign scheduling, agreement is the overwhelmingly
// common outcome; we assert a loose majority to keep the test robust.
func TestFlipTerminatesAndAgreesOften(t *testing.T) {
	const n, trials = 8, 30
	for name, mkmk := range positions() {
		t.Run(name, func(t *testing.T) {
			agree := 0
			for trial := 0; trial < trials; trial++ {
				outcomes, _ := runTrial(t, n, mkmk(n), uint64(trial+1))
				same := true
				for _, o := range outcomes {
					if o != outcomes[0] {
						same = false
					}
				}
				if same {
					agree++
				}
			}
			if agree < trials/2 {
				t.Errorf("%s: only %d/%d trials agreed", name, agree, trials)
			}
		})
	}
}

// TestFlipSoloIsFastEnough: a solo process must finish in O((Kn)²)
// expected moves; assert a generous cap.
func TestFlipSoloIsFastEnough(t *testing.T) {
	const n = 4
	c := New(counterPosition(), n, 4)
	rng := rand.New(rand.NewPCG(7, 7))
	_, moves := c.Flip(0, rng)
	if moves > 100*(4*n)*(4*n) {
		t.Fatalf("solo flip took %d moves, far above O((Kn)²)", moves)
	}
}

// TestFlipBothOutcomesReachable: over many seeds, both outcomes occur.
func TestFlipBothOutcomesReachable(t *testing.T) {
	seen := map[int64]bool{}
	for seed := uint64(1); seed <= 40 && len(seen) < 2; seed++ {
		c := New(counterPosition(), 2, 3)
		rng := rand.New(rand.NewPCG(seed, 0))
		out, _ := c.Flip(0, rng)
		seen[out] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("outcomes seen: %v, want both", seen)
	}
}

// TestMovesGrowQuadratically: expected total moves at 2n should be roughly
// 4× those at n (random-walk variance); assert a loose ratio window to
// avoid flakiness while still catching a linear-cost regression.
func TestMovesGrowQuadratically(t *testing.T) {
	mean := func(n int) float64 {
		const trials = 20
		total := 0
		for trial := 0; trial < trials; trial++ {
			_, moves := runTrial(t, n, func() Position {
				return counterPosition()
			}, uint64(100+trial))
			total += moves
		}
		return float64(total) / trials
	}
	m4, m8 := mean(4), mean(8)
	ratio := m8 / m4
	if ratio < 1.5 {
		t.Errorf("moves(8)/moves(4) = %.2f; expected super-linear growth", ratio)
	}
	t.Logf("mean moves n=4: %.0f, n=8: %.0f, ratio %.2f (theory ≈ 4)", m4, m8, ratio)
}

func TestFlipBatchedTerminatesAndAgrees(t *testing.T) {
	const n, trials = 6, 20
	agree := 0
	for trial := 0; trial < trials; trial++ {
		c := New(counterPosition(), n, 6)
		outcomes := make([]int64, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(trial+1), uint64(p)))
				outcomes[p], _ = c.FlipBatched(p, rng, 4)
			}(p)
		}
		wg.Wait()
		same := true
		for _, o := range outcomes {
			if o != outcomes[0] {
				same = false
			}
		}
		if same {
			agree++
		}
	}
	if agree < trials/3 {
		t.Errorf("batched coin agreed in only %d/%d trials", agree, trials)
	}
}

func TestFlipBatchedDegenerateBatch(t *testing.T) {
	c := New(counterPosition(), 2, 3)
	rng := rand.New(rand.NewPCG(5, 5))
	out, moves := c.FlipBatched(0, rng, 0) // clamps to 1
	if out != 0 && out != 1 {
		t.Fatalf("outcome %d", out)
	}
	if moves == 0 {
		t.Fatal("no moves recorded")
	}
}

// TestBatchingReducesReads: with the same seeds, batching performs
// strictly fewer position reads per move (measured via a counting
// position).
func TestBatchingReducesReads(t *testing.T) {
	// Solo walks: compare reads-per-move ratios.
	readsPlain, readsBatched := 0, 0
	movesPlain, movesBatched := 0, 0
	{
		r := 0
		c := New(readCounter{counterPosition(), &r}, 4, 4)
		rng := rand.New(rand.NewPCG(9, 9))
		_, movesPlain = c.Flip(0, rng)
		readsPlain = r
	}
	{
		r := 0
		c := New(readCounter{counterPosition(), &r}, 4, 4)
		rng := rand.New(rand.NewPCG(9, 9))
		_, movesBatched = c.FlipBatched(0, rng, 8)
		readsBatched = r
	}
	if movesPlain == 0 || movesBatched == 0 {
		t.Fatal("walks made no moves")
	}
	ratioPlain := float64(readsPlain) / float64(movesPlain)
	ratioBatched := float64(readsBatched) / float64(movesBatched)
	if ratioBatched >= ratioPlain {
		t.Fatalf("batching did not reduce reads/move: %.2f vs %.2f", ratioBatched, ratioPlain)
	}
}

// readCounter counts Read calls on a wrapped position.
type readCounter struct {
	Position
	reads *int
}

func (r readCounter) Read(proc int) int64 {
	*r.reads++
	return r.Position.Read(proc)
}

// counterPosition returns a position over a fresh counter object.
func counterPosition() CounterPosition {
	return CounterPosition{C: runtime.NewObject(object.CounterType{}, nil)}
}
