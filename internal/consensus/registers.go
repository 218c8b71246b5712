package consensus

import (
	"randsync/internal/coin"
	"randsync/internal/runtime"
)

// Registers is randomized n-process binary consensus from O(n) read-write
// registers (Aspnes–Herlihy [9]), the upper bound the paper contrasts with
// its Ω(√n) historyless lower bound.
//
// Structure per round r (see the exhaustively model-checked simulator twin
// protocol.RegisterConsensus for the safety analysis):
//
//  1. Conciliator: mark proposed[pref] with r, flip the round's weak
//     shared coin, and adopt the coin's value if it was proposed.  The
//     coin is package coin's random walk with barriers at ±3n over a
//     round-tagged collect of the coin registers (roundCoin).
//  2. Adopt-commit (Gafni-style, two collect phases over single-writer
//     registers A and B): commit — decide — when every round-r entry seen
//     carries a clean flag and nobody is ahead; otherwise adopt a
//     committed value if one is visible and continue.
//
// Safety holds for arbitrary coin outcomes; the coin only bounds the
// expected number of rounds (constant agreement probability per round).
//
// The implementation uses 3n+2 registers: A[n] + B[n] + coin[n] +
// proposed[2].
type Registers struct {
	meter
	n        int
	a        []*runtime.Register
	b        []*runtime.Register
	coins    []*runtime.Register
	proposed [2]*runtime.Register
	seed     uint64
}

// coinBarrier places the shared coin's absorbing barriers at ±3n.
const coinBarrier = 3

// NewRegisters returns a register-only consensus instance for n processes.
func NewRegisters(n int, seed uint64) *Registers {
	r := &Registers{
		n:     n,
		a:     make([]*runtime.Register, n),
		b:     make([]*runtime.Register, n),
		coins: make([]*runtime.Register, n),
		seed:  seed,
	}
	for i := 0; i < n; i++ {
		r.a[i] = runtime.NewRegister(0, nil)
		r.b[i] = runtime.NewRegister(0, nil)
		r.coins[i] = runtime.NewRegister(0, nil)
	}
	r.proposed[0] = runtime.NewRegister(0, nil)
	r.proposed[1] = runtime.NewRegister(0, nil)
	return r
}

// Name implements Protocol.
func (c *Registers) Name() string { return "registers" }

// Objects implements Protocol: no non-register objects.
func (c *Registers) Objects() int { return 0 }

// Registers implements Protocol.
func (c *Registers) Registers() int { return 3*c.n + 2 }

// packA / packB mirror the simulator twin's layouts.
func rcPackA(r, v int64) int64         { return r<<1 | v }
func rcUnpackA(x int64) (int64, int64) { return x >> 1, x & 1 }

func rcPackB(r int64, flag bool, v int64) int64 {
	f := int64(0)
	if flag {
		f = 1
	}
	return r<<2 | f<<1 | v
}

func rcUnpackB(x int64) (int64, bool, int64) { return x >> 2, x>>1&1 == 1, x & 1 }

// packCoin stores (round, delta) with the signed delta in the low 32 bits.
func packCoin(r, delta int64) int64 { return r<<32 | int64(uint32(int32(delta))) }

func unpackCoin(x int64) (r, delta int64) { return x >> 32, int64(int32(uint32(x))) }

// roundCoin is the round-r cursor of the weak shared coin, as one
// process sees it: the sum of the round-r-tagged contributions in
// c.coins, each process adding its own ±1 moves to its own register.
// A contribution tagged with an earlier round counts as zero.
type roundCoin struct {
	c     *Registers
	round int64
	delta int64 // the caller's contribution so far
}

// Add implements coin.Position: one write of proc's register.
func (p *roundCoin) Add(proc int, delta int64) {
	p.delta += delta
	p.c.count(proc, 1)
	p.c.coins[proc].Write(proc, packCoin(p.round, p.delta))
}

// Read implements coin.Position: a collect of n registers.
func (p *roundCoin) Read(proc int) int64 {
	p.c.count(proc, int64(p.c.n))
	var sum int64
	for _, reg := range p.c.coins {
		if r, d := unpackCoin(reg.Read(proc)); r == p.round {
			sum += d
		}
	}
	return sum
}

// Decide implements Protocol.
func (c *Registers) Decide(proc int, input int64) int64 {
	pref, rng := input, flips(c.seed, proc)
	for round := int64(1); ; round++ {
		// Conciliator: mark, flip, maybe adopt.
		c.count(proc, 1)
		c.proposed[pref].Write(proc, round)
		flip, _ := coin.New(&roundCoin{c: c, round: round}, c.n, coinBarrier).Flip(proc, rng)
		c.count(proc, 1)
		if c.proposed[flip].Read(proc) >= round {
			pref = flip
		}

		// Adopt-commit phase 1.
		c.count(proc, 1)
		c.a[proc].Write(proc, rcPackA(round, pref))
		c.count(proc, int64(c.n))
		conflict := false
		for j := 0; j < c.n; j++ {
			r, v := rcUnpackA(c.a[j].Read(proc))
			if r > round || (r == round && v != pref) {
				conflict = true
			}
		}

		// Adopt-commit phase 2.
		c.count(proc, 1)
		c.b[proc].Write(proc, rcPackB(round, !conflict, pref))
		c.count(proc, int64(c.n))
		anyHigher, anyFalseR := false, false
		trueVal := int64(-1)
		for j := 0; j < c.n; j++ {
			r, flag, v := rcUnpackB(c.b[j].Read(proc))
			switch {
			case r > round:
				anyHigher = true
			case r == round && !flag:
				anyFalseR = true
			case r == round && flag:
				trueVal = v
			}
		}

		if !anyHigher && !anyFalseR {
			return pref
		}
		if trueVal >= 0 {
			pref = trueVal
		}
	}
}
