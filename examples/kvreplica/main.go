// Replicated key-value store: per-slot consensus as a replication log.
//
// Three replica goroutines apply client commands to independent in-memory
// key-value maps.  Commands race into a shared log where every slot is a
// binary-consensus-backed register built from compare&swap (the
// deterministic single-object consensus behind Corollary 4.1): whichever
// command wins slot i is the command *every* replica applies at position
// i, so the replicas — despite never talking to each other — end up with
// identical state.  This is the classic state-machine-replication pattern
// with the paper's minimal synchronization substrate.
//
// Run with: go run ./examples/kvreplica
package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync"

	"randsync/internal/object"
	"randsync/internal/runtime"
)

const (
	replicas = 3
	clients  = 4
	slots    = 12
)

// command is a tiny op: set key (one of a..d) to a value.
type command struct {
	key   string
	value int
}

// encode packs a command for the CAS register (keys a..d → 0..3).
func encode(c command) int64 { return int64(c.key[0]-'a')<<32 | int64(c.value) }

func decode(x int64) command {
	return command{key: string(rune('a' + byte(x>>32))), value: int(int32(x))}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvreplica:", err)
		os.Exit(1)
	}
}

func run() error {
	// The shared log: one compare&swap register per slot, initially empty.
	log := make([]*runtime.Object, slots)
	for i := range log {
		log[i] = runtime.NewObject(object.CASType{Initial: -1}, nil)
	}

	// Clients race to commit commands into the lowest free slot.
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(cl)+1, 99))
			for op := 0; op < slots/clients; op++ {
				cmd := command{key: string(rune('a' + rng.IntN(4))), value: cl*100 + op}
				for slot := 0; slot < slots; slot++ {
					// One CAS decides the slot: first writer wins, and
					// every loser learns the winning command.
					op := object.Op{Kind: object.CompareAndSwap, Arg: encode(cmd), Arg2: -1}
					if log[slot].Do(cl, op) == -1 {
						break // committed
					}
				}
			}
		}(cl)
	}
	wg.Wait()

	// Replicas independently replay the log.
	stores := make([]map[string]int, replicas)
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			kv := make(map[string]int)
			for slot := 0; slot < slots; slot++ {
				x := log[slot].Read(clients + r)
				if x == -1 {
					continue
				}
				cmd := decode(x)
				kv[cmd.key] = cmd.value
			}
			stores[r] = kv
		}(r)
	}
	wg.Wait()

	fmt.Printf("replication log (%d slots, one compare&swap object each):\n", slots)
	for slot := 0; slot < slots; slot++ {
		x := log[slot].Read(0)
		if x == -1 {
			fmt.Printf("  slot %2d: (empty)\n", slot)
			continue
		}
		cmd := decode(x)
		fmt.Printf("  slot %2d: set %s = %d\n", slot, cmd.key, cmd.value)
	}

	fmt.Println("\nreplica states after independent replay:")
	for r, kv := range stores {
		fmt.Printf("  replica %d: %s\n", r, renderKV(kv))
	}
	for r := 1; r < replicas; r++ {
		if renderKV(stores[r]) != renderKV(stores[0]) {
			return fmt.Errorf("replica %d diverged", r)
		}
	}
	fmt.Println("\nall replicas identical — the log's per-slot consensus makes replay deterministic")
	return nil
}

// renderKV formats a store deterministically.
func renderKV(kv map[string]int) string {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, kv[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}
