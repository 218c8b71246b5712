// Leader election from binary consensus: the motivating application of
// §1's "software implementation of one synchronization object from
// another".
//
// Sixteen worker goroutines elect a single leader by agreeing on its id
// bit by bit: one binary consensus instance per id bit (here over a single
// fetch&add register each — Theorem 4.4's minimal-space protocol).  A
// worker proposes the corresponding bit of its own id while it is still a
// candidate, and drops out when a decided bit differs from its own;
// dropped-out workers keep participating (proposing 0) so the election is
// wait-free: nobody blocks on anyone else.  Because the worker-id space is
// a full power of two, every decided bit string names a real worker, and
// all workers agree on it; a worker learns that it leads by comparing the
// elected id with its own.
//
// Run with: go run ./examples/leaderelection
package main

import (
	"fmt"
	"os"
	"sync"

	"randsync/internal/consensus"
)

const (
	workers = 16
	idBits  = 4 // ceil(log2(workers))
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leaderelection:", err)
		os.Exit(1)
	}
}

func run() error {
	// One single-object consensus instance per id bit.
	rounds := make([]consensus.Protocol, idBits)
	for b := range rounds {
		p, err := consensus.Resolve("packed-fetch&add", workers, uint64(1000+b))
		if err != nil {
			return err
		}
		rounds[b] = p
	}

	leaders := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			leaders[w] = elect(w, rounds)
		}(w)
	}
	wg.Wait()

	fmt.Printf("%d workers elected with %d binary consensus instances (1 fetch&add object each):\n\n",
		workers, idBits)
	for w, l := range leaders {
		marker := ""
		if l == w {
			marker = "  ← the leader itself"
		}
		fmt.Printf("worker %2d sees leader %2d%s\n", w, l, marker)
	}
	for w := 1; w < workers; w++ {
		if leaders[w] != leaders[0] {
			return fmt.Errorf("disagreement: worker %d sees %d, worker 0 sees %d",
				w, leaders[w], leaders[0])
		}
	}
	fmt.Printf("\nall workers agree: leader = %d\n", leaders[0])
	return nil
}

// elect agrees on a leader id bit by bit (most significant first).
func elect(w int, rounds []consensus.Protocol) int {
	prefix := 0
	candidate := true
	for b := idBits - 1; b >= 0; b-- {
		myBit := int64(w>>b) & 1
		proposal := myBit
		if !candidate {
			// No preference left: propose 0.  Any fixed value works —
			// the id space is a full power of two, so whatever bit wins,
			// the decided string names a real worker.
			proposal = 0
		}
		decided := rounds[idBits-1-b].Decide(w, proposal)
		prefix = prefix<<1 | int(decided)
		if candidate && decided != myBit {
			candidate = false
		}
	}
	return prefix
}
