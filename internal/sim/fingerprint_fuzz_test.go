package sim

import (
	"testing"
)

// FuzzConfigFingerprint drives random schedules (and coin outcomes)
// against the toy protocols and checks the fingerprint contract on every
// configuration reached along the way:
//
//   - fingerprint equality ⇔ key (AppendKey) equality across the corpus
//     of snapshots: distinct keys must not collide, equal keys must
//     always fingerprint identically;
//   - stability across snapshot/replay: replaying the recorded execution
//     on a fresh configuration reproduces the key and fingerprint
//     exactly, as does Clone.
func FuzzConfigFingerprint(f *testing.F) {
	fingerprint := func(c *Config) uint64 { return FingerprintBytes(c.AppendKey(nil)) }
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 0, 255, 0})
	f.Add([]byte{})
	f.Add([]byte{13, 37, 42, 99, 1, 1, 1, 1, 200, 150})
	f.Fuzz(func(t *testing.T, script []byte) {
		type snapshot struct {
			key string
			fp  uint64
		}
		var corpus []snapshot
		record := func(c *Config) {
			key, fp := keyOf(c), fingerprint(c)
			corpus = append(corpus, snapshot{key: key, fp: fp})
		}

		protos := []Protocol{writeReadProto{}, flipProto{}}
		for _, proto := range protos {
			inputs := []int64{0, 1, 1}
			c := NewConfig(proto, inputs)
			var exec Execution
			record(c)
			for _, b := range script {
				pid := int(b>>4) % c.N()
				a := c.Pending(pid)
				if a.Kind == ActHalt {
					continue
				}
				outcome := int64(0)
				if a.Kind == ActFlip {
					outcome = int64(b) % a.Sides
				}
				ev, err := c.Step(pid, outcome)
				if err != nil {
					t.Fatalf("step P%d: %v", pid, err)
				}
				exec = append(exec, ev)
				record(c)
			}

			// Snapshot/replay stability: a fresh configuration replaying
			// the recorded execution lands on the same fingerprint.
			r := NewConfig(proto, inputs)
			if err := r.Apply(exec); err != nil {
				t.Fatalf("replay: %v", err)
			}
			if fingerprint(r) != fingerprint(c) || keyOf(r) != keyOf(c) {
				t.Fatalf("replay diverged: key %q fp %#x, want key %q fp %#x",
					keyOf(r), fingerprint(r), keyOf(c), fingerprint(c))
			}
			if cl := c.Clone(); fingerprint(cl) != fingerprint(c) || keyOf(cl) != keyOf(c) {
				t.Fatalf("clone key %q fp %#x differs from original %q fp %#x",
					keyOf(cl), fingerprint(cl), keyOf(c), fingerprint(c))
			}
		}

		// Fingerprint equality ⇔ key equality over the whole corpus.
		byFP := make(map[uint64]string, len(corpus))
		byKey := make(map[string]uint64, len(corpus))
		for _, s := range corpus {
			if key, seen := byFP[s.fp]; seen && key != s.key {
				t.Fatalf("fingerprint collision: %q and %q both hash to %#x", key, s.key, s.fp)
			}
			byFP[s.fp] = s.key
			if fp, seen := byKey[s.key]; seen && fp != s.fp {
				t.Fatalf("unstable fingerprint: key %q hashed to %#x and %#x", s.key, fp, s.fp)
			}
			byKey[s.key] = s.fp
		}
	})
}
