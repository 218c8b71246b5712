// Package coin implements the weak shared coin at the heart of the
// counter-based randomized consensus protocols of Aspnes and Herlihy
// ([7], [9]): processes jointly drive a shared cursor on a random walk,
// each contributing ±1 local flips, until the cursor is absorbed at ±K·n.
//
// The coin is "weak": with probability at least a constant (depending on
// K), all processes observe the same outcome; otherwise the adversary's
// scheduling of the up-to-n in-flight moves may split them.  Randomized
// consensus tolerates the split — disagreeing rounds simply recur — so the
// constant only affects expected running time.  The expected total number
// of moves is O((K·n)²), the quantity benchmarked by E6.
package coin

import (
	"math/rand/v2"

	"randsync/internal/object"
	"randsync/internal/runtime"
)

// Position is the shared random-walk cursor: any counter-like object
// supporting per-process signed additions and reads.
type Position interface {
	// Add moves the cursor by delta on behalf of proc.
	Add(proc int, delta int64)
	// Read returns the cursor position as seen by proc.
	Read(proc int) int64
}

// CounterPosition adapts a counter object (object.CounterType: a single
// counter, as in Theorem 4.2's instance accounting), moving it by |delta|
// increments or decrements.
type CounterPosition struct {
	C *runtime.Object
}

var _ Position = CounterPosition{}

// Add implements Position.
func (p CounterPosition) Add(proc int, delta int64) {
	for ; delta > 0; delta-- {
		p.C.Do(proc, object.Op{Kind: object.Inc})
	}
	for ; delta < 0; delta++ {
		p.C.Do(proc, object.Op{Kind: object.Dec})
	}
}

// Read implements Position.
func (p CounterPosition) Read(proc int) int64 { return p.C.Read(proc) }

// HookedPosition wraps a Position with an injection hook fired on the
// calling process's goroutine before every Add and Read — the coin-layer
// injection point used by package fault to crash, stall, or perturb a
// walker between cursor operations.  A panic from Before aborts the
// operation before it reaches the underlying position, so a crashed
// walker's in-flight move is cleanly lost (crash-stop); the surviving
// walkers drive the cursor to a barrier on their own, which is what makes
// the weak shared coin wait-free.
type HookedPosition struct {
	Pos    Position
	Before func(proc int)
}

var _ Position = HookedPosition{}

// Add implements Position.
func (p HookedPosition) Add(proc int, delta int64) {
	if p.Before != nil {
		p.Before(proc)
	}
	p.Pos.Add(proc, delta)
}

// Read implements Position.
func (p HookedPosition) Read(proc int) int64 {
	if p.Before != nil {
		p.Before(proc)
	}
	return p.Pos.Read(proc)
}

// WeakShared is a weak shared coin for n processes with absorbing barriers
// at ±K·n.
type WeakShared struct {
	pos     Position
	barrier int64
}

// New returns a weak shared coin over pos for n processes with barrier
// multiplier k (k ≥ 2 recommended; larger k raises agreement probability
// and quadratically raises expected moves).
func New(pos Position, n, k int) *WeakShared {
	return &WeakShared{pos: pos, barrier: int64(n * k)}
}

// Flip drives the walk on behalf of proc until absorption and returns the
// outcome (0 or 1) along with the number of local moves contributed.
// rng supplies proc's local coin flips.
func (c *WeakShared) Flip(proc int, rng *rand.Rand) (outcome int64, moves int) {
	for {
		k := c.pos.Read(proc)
		switch {
		case k >= c.barrier:
			return 1, moves
		case k <= -c.barrier:
			return 0, moves
		}
		if rng.IntN(2) == 1 {
			c.pos.Add(proc, 1)
		} else {
			c.pos.Add(proc, -1)
		}
		moves++
	}
}

// FlipBatched is Flip with the standard contention optimization from the
// shared-coin literature (cf. Bracha–Rachman): the walker re-reads the
// cursor only every `batch` local moves instead of after each one.  The
// walk may overshoot the barrier by up to n·batch moves, so callers using
// batched flips in a consensus protocol must widen the decision margins
// accordingly; the weak-coin guarantee degrades gracefully (agreement
// probability falls with batch) while read traffic drops by a factor of
// batch.
func (c *WeakShared) FlipBatched(proc int, rng *rand.Rand, batch int) (outcome int64, moves int) {
	if batch < 1 {
		batch = 1
	}
	for {
		k := c.pos.Read(proc)
		switch {
		case k >= c.barrier:
			return 1, moves
		case k <= -c.barrier:
			return 0, moves
		}
		var delta int64
		for i := 0; i < batch; i++ {
			if rng.IntN(2) == 1 {
				delta++
			} else {
				delta--
			}
		}
		c.pos.Add(proc, delta)
		moves += batch
	}
}
