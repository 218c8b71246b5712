package explore

import (
	"bytes"
	"testing"
)

// keyTableOp codes for FuzzKeyTable's recipe bytes.
const (
	ktFind = iota
	ktInsert
	ktGrow
	ktReset
	ktPersist
	ktLongKey
	ktOps
)

// FuzzKeyTable drives a keyTable and a map[string]int64 reference through
// one recipe of finds, inserts, explicit grows, resets (eviction) and
// persist marks.  The fingerprint is cut to a few bits, so nearly every
// insert lands on a fingerprint a distinct key already holds.  After
// every step the table must agree with the reference, and every walk
// from a mark must yield exactly the keys admitted since that mark, in
// admission order, with their fingerprints and ids.  A KeySet (the
// sharded engine drives keyTable directly; the serial engine, Bivalence
// and the dist coordinator go through KeySet) admits every inserted key
// too and is reset with the table: its ids must be admission indices
// since the last reset, Lookup must agree without admitting, and its
// walk must be the admission order since the last reset.
func FuzzKeyTable(f *testing.F) {
	// An empty key, then a short one under the same truncated fingerprint.
	f.Add(uint8(1), []byte{ktInsert, 0, ktInsert, 1, 'a', ktFind, 0, ktPersist})
	// A key longer than the largest arena chunk (129 << 13 bytes), between
	// short keys, walked from a mark.
	f.Add(uint8(2), []byte{ktInsert, 2, 'a', 'b', ktPersist, ktLongKey, 13, 128, 'x',
		ktInsert, 1, 'c', ktFind, 1, 'c', ktPersist, ktInsert, 1, 'd'})
	// A reset, then re-admitting the same keys (fresh ids, one walk).
	f.Add(uint8(3), []byte{ktInsert, 1, 'a', ktInsert, 1, 'b', ktInsert, 2, 'a', 'b', ktPersist,
		ktReset, ktInsert, 1, 'a', ktInsert, 1, 'b', ktInsert, 2, 'a', 'b', ktFind, 1, 'b', ktPersist})
	// Enough keys to grow the table twice, with an explicit grow between.
	grow := []byte{}
	for i := 0; i < 120; i++ {
		grow = append(grow, ktInsert, 2, byte(i), byte(i>>4))
		if i == 50 {
			grow = append(grow, ktGrow, ktPersist)
		}
	}
	f.Add(uint8(0), append(grow, ktPersist))

	f.Fuzz(func(t *testing.T, fpBits uint8, recipe []byte) {
		mask := uint64(1)<<(fpBits%4+1) - 1
		fpOf := func(key []byte) uint64 { return nodeFP(key) & mask }

		var tab keyTable
		ref := map[string]int64{}
		var log []string        // admission order since the last reset
		var mark int            // log index of the persist mark
		var collided int64      // reference collisions since the mark
		fps := map[uint64]int{} // keys per fingerprint since the last reset
		var nextID int64
		var long int // long keys admitted so far
		var set KeySet
		var setLog []string // every distinct key the set was offered since the last reset
		setRef := map[string]int64{}

		check := func(key []byte) {
			t.Helper()
			want, seen := setRef[string(key)]
			if id, found := set.Lookup(fpOf(key), key); found != seen || (seen && id != want) {
				t.Fatalf("KeySet.Lookup(%q) = %d, %v; want %d, %v", trunc(key), id, found, want, seen)
			}
			id, found, p := tab.find(fpOf(key), key)
			want, ok := ref[string(key)]
			if found != ok || (ok && id != want) {
				t.Fatalf("find(%q) = %d, %v; reference %d, %v", trunc(key), id, found, want, ok)
			}
			if !ok && p.collided != (fps[fpOf(key)] > 0) {
				t.Fatalf("find(%q) collided = %v; %d keys share its fingerprint", trunc(key), p.collided, fps[fpOf(key)])
			}
		}
		insert := func(key []byte) {
			t.Helper()
			check(key)
			want, seen := setRef[string(key)]
			if !seen {
				want = int64(len(setLog))
				setRef[string(key)] = want
				setLog = append(setLog, string(key))
			}
			if id, fresh := set.Admit(fpOf(key), key); id != want || fresh == seen {
				t.Fatalf("KeySet.Admit(%q) = %d, %v; want %d, %v", trunc(key), id, fresh, want, !seen)
			}
			fp := fpOf(key)
			_, found, p := tab.find(fp, key)
			if found {
				return
			}
			tab.insert(p, fp, key, nextID)
			ref[string(key)] = nextID
			nextID++
			log = append(log, string(key))
			if fps[fp] > 0 {
				collided++
			}
			fps[fp]++
		}
		walk := func() {
			t.Helper()
			i := mark
			tab.since(func(fp uint64, id int64, key []byte) {
				if i >= len(log) {
					t.Fatalf("walk yielded %q beyond the %d keys admitted since the mark", trunc(key), len(log)-mark)
				}
				want := log[i]
				if string(key) != want || fp != fpOf(key) || id != ref[want] {
					t.Fatalf("walk record %d = (%d, %d, %q); want (%d, %d, %q)",
						i-mark, fp, id, trunc(key), fpOf([]byte(want)), ref[want], trunc([]byte(want)))
				}
				i++
			})
			if i != len(log) {
				t.Fatalf("walk yielded %d keys, %d were admitted since the mark", i-mark, len(log)-mark)
			}
			if n, c := tab.pending(); n != len(log)-mark || c != collided {
				t.Fatalf("pending() = %d, %d; want %d, %d", n, c, len(log)-mark, collided)
			}
		}

		for r := recipe; len(r) > 0; {
			op := r[0] % ktOps
			r = r[1:]
			switch op {
			case ktFind, ktInsert:
				var klen int
				if len(r) > 0 {
					klen, r = int(r[0]%8), r[1:]
				}
				klen = min(klen, len(r))
				key := r[:klen:klen]
				r = r[klen:]
				if op == ktFind {
					check(key)
				} else {
					insert(key)
				}
			case ktLongKey:
				if len(r) < 3 {
					r = nil
					continue
				}
				if long < 2 { // at most two keys of up to 2 MiB a recipe
					long++
					// Log-uniform lengths: every chunk size is crossed cheaply.
					n := (int(r[1]) + 1) << (r[0] % 14)
					insert(bytes.Repeat(r[2:3], n))
				}
				r = r[3:]
			case ktGrow:
				if len(tab.slots) < 1<<12 { // a recipe of grows must not exhaust memory
					tab.grow()
				}
			case ktReset:
				tab.reset()
				set.Reset()
				clear(setRef)
				setLog = setLog[:0]
				clear(ref)
				clear(fps)
				log, mark, collided = log[:0], 0, 0
			case ktPersist:
				walk()
				tab.markPersisted()
				mark, collided = len(log), 0
			}
			if tab.n != len(ref) {
				t.Fatalf("table holds %d keys, reference %d", tab.n, len(ref))
			}
		}
		for k := range ref {
			check([]byte(k))
		}
		walk()
		i := 0
		set.Keys(func(key []byte) {
			if i >= len(setLog) || string(key) != setLog[i] {
				t.Fatalf("KeySet walk record %d = %q, want the %d-th admitted key", i, trunc(key), i)
			}
			i++
		})
		if i != len(setLog) || set.Len() != len(setLog) {
			t.Fatalf("KeySet walked %d keys, Len %d; %d were admitted", i, set.Len(), len(setLog))
		}
	})
}

// trunc shortens a key for a failure message.
func trunc(key []byte) []byte {
	if len(key) > 32 {
		return key[:32]
	}
	return key
}
