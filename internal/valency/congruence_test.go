package valency_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"randsync/internal/hierarchy"
	"randsync/internal/object"
	"randsync/internal/sim"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// congruenceModes are the three keyings every engine uses: plain keys,
// symmetry-canonical keys, and plain keys with a crash-allowance suffix.
var congruenceModes = []struct {
	name string
	opts valency.Options
}{
	{"nosym", valency.Options{NoSymmetry: true}},
	{"sym", valency.Options{}},
	{"crash", valency.Options{Crash: []int{2}}},
}

// TestStateKeyCongruence checks that the visited-set key every engine
// merges configurations on (Options.AppendVisitKey over the states'
// AppendKey) is a congruence: configurations with equal keys behave
// identically.  It runs on every zoo entry and a seeded sample of F = 2
// hierarchy machines at n = 2, and on the small entries at n = 3, over
// all input vectors, in the three keying modes.  Along the way it checks the tag rule of
// sim.State.AppendKey: one Go type per leading tag byte over every state
// reached, and no state tag equal to valency's crash separator (0xFD).
func TestStateKeyCongruence(t *testing.T) {
	type named struct {
		name  string
		n     int
		proto sim.Protocol
	}
	var cases []named
	resolve := func(name string, spec zoo.Spec) {
		p, err := zoo.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, named{name: name, n: spec.N, proto: p})
	}
	for _, spec := range zoo.Examples() {
		resolve(spec.Name, spec)
	}
	// n = 3 only where the walk is cheap: counter-walk, register-consensus
	// and the floods take seconds there.
	for _, spec := range zoo.Examples() {
		switch spec.Name {
		case "cas", "sticky", "packed-fetch&add", "scan-machine", "machine:sticky-bit:2:26863":
			spec.N = 3
			resolve(spec.Name, spec)
		}
	}
	// The example scan machine's one object is a test&set, which every
	// complete scan sees holding the process's own mark, so its scan view
	// never matters.  Over two registers it does.
	resolve("scan-machine(r=2,seed=2)", zoo.Spec{Name: "scan-machine", N: 2, R: 2, Seed: 2})
	rng := rand.New(rand.NewSource(42))
	for _, typ := range []object.Type{object.RegisterType{}, object.StickyBitType{}, object.TestAndSetType{}} {
		count, err := hierarchy.MachineCount(typ, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			m, err := hierarchy.MachineByID(typ, 2, 1+uint64(rng.Int63n(int64(count))))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, named{name: zoo.MachineSpec(m, 2).Name, n: 2, proto: m})
		}
	}

	tags := make(map[byte]string) // leading tag byte → state type, over the whole run
	for _, tc := range cases {
		for _, mode := range congruenceModes {
			t.Run(fmt.Sprintf("%s/n=%d/%s", tc.name, tc.n, mode.name), func(t *testing.T) {
				for bits := 0; bits < 1<<tc.n; bits++ {
					if err := checkCongruence(tc.proto, valency.InputVector(bits, tc.n), mode.opts, tags); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}

	// The check must not be vacuous: it passes a correct key and reports
	// a key that drops a field behaviour depends on.
	t.Run("lossy-twin", func(t *testing.T) {
		for _, mode := range congruenceModes {
			inputs := []int64{0, 1}
			if err := checkCongruence(coinProto{}, inputs, mode.opts, map[byte]string{}); err != nil {
				t.Errorf("%s: correct key reported: %v", mode.name, err)
			}
			if err := checkCongruence(coinProto{lossy: true}, inputs, mode.opts, map[byte]string{}); err == nil {
				t.Errorf("%s: a key without the coin outcome passed", mode.name)
			}
		}
	})
}

// checkCongruence explores every configuration reachable from inputs
// breadth-first and reports the first visit key (opts.AppendVisitKey)
// shared by two configurations that behave differently.
//
// The walk deduplicates on identity — the states' Go values, not their
// keys — so every reachable configuration is compared with the first
// configuration seen under its key, not only one per key.  A signature
// records, for every pid, the pending action, the decision, whether the
// pid has crashed, and the visit key each of its moves reaches.  If every
// reachable configuration matches its key's first signature, equal keys
// are a bisimulation over the reachable space: they agree on every
// observable the checker reads and step to equal keys again, so merging
// them loses nothing.  Under symmetry the per-pid parts are compared as a
// sorted multiset, since the canonical key forgets which pid is which.
//
// tags maps each leading state tag byte to the one Go type allowed to use
// it; checkCongruence fills it in and reports a second type on a tag.
func checkCongruence(proto sim.Protocol, inputs []int64, opts valency.Options, tags map[byte]string) error {
	keyer := sim.Keyer{Symmetry: opts.SymmetryOn()}
	unordered := keyer.Symmetry && proto.Identical()
	var buf []byte
	visitKey := func(c *sim.Config) string {
		buf = opts.AppendVisitKey(&keyer, c, buf[:0])
		return string(buf)
	}
	first := make(map[string]string) // visit key → signature of its first configuration
	seen := make(map[string]bool)    // configuration identities
	root := sim.NewConfig(proto, inputs)
	seen[identity(root, opts)] = true
	for queue := []*sim.Config{root}; len(queue) > 0; queue = queue[1:] {
		c := queue[0]
		for _, s := range c.States {
			tag := s.AppendKey(nil)[0]
			typ := fmt.Sprintf("%T", s)
			if tag == 0xFD {
				return fmt.Errorf("%s: state type %s uses tag 0xFD, valency's crash separator", proto.Name(), typ)
			}
			if prev, ok := tags[tag]; ok && prev != typ {
				return fmt.Errorf("%s: tag %#02x is used by both %s and %s", proto.Name(), tag, prev, typ)
			}
			tags[tag] = typ
		}

		parts := make([]string, c.N())
		for pid := range parts {
			parts[pid] = fmt.Sprintf("%v decided=%t", c.Pending(pid), c.Decided[pid])
			if c.Decided[pid] {
				parts[pid] += fmt.Sprintf("(%d)", c.Decision[pid])
			}
			if opts.Crashed(c, pid) {
				parts[pid] += " crashed"
			}
		}
		if _, err := opts.Successors(c, func(pid int, _ int64, _ sim.Event) bool {
			parts[pid] += fmt.Sprintf(" → %q", visitKey(c))
			if id := identity(c, opts); !seen[id] {
				seen[id] = true
				queue = append(queue, c.Clone())
			}
			return false
		}); err != nil {
			return fmt.Errorf("%s on %v: %w", proto.Name(), inputs, err)
		}
		if unordered {
			slices.Sort(parts)
		}
		sig, key := strings.Join(parts, "\n"), visitKey(c)
		if prev, ok := first[key]; !ok {
			first[key] = sig
		} else if prev != sig {
			return fmt.Errorf("%s on %v: key %q merges configurations that behave differently:\n%s\nvs\n%s",
				proto.Name(), inputs, key, prev, sig)
		}
	}
	return nil
}

// identity is a configuration's full value, independent of any key: the
// states as Go values (%#v prints every field, and a pointer state by its
// address), the inputs, objects and decisions, and under a crash schedule
// each scheduled pid's remaining steps to crash, clamped at 0.
func identity(c *sim.Config, opts valency.Options) string {
	id := fmt.Sprintf("%#v|%v|%v|%v|%v", c.States, c.Inputs, c.Objects, c.Decided, c.Decision)
	for pid, lim := range opts.Crash {
		rem := -1
		if lim >= 0 {
			rem = max(lim-c.Steps[pid], 0)
		}
		id += fmt.Sprintf(",%d", rem)
	}
	return id
}

// coinProto is the congruence check's broken twin: each process flips a
// coin and then decides its outcome.  With lossy set, its key omits the
// outcome, merging a process about to decide 0 with one about to decide 1.
type coinProto struct{ lossy bool }

func (p coinProto) Name() string {
	if p.lossy {
		return "coin(lossy)"
	}
	return "coin"
}
func (coinProto) Objects() []object.Type           { return nil }
func (coinProto) Identical() bool                  { return true }
func (p coinProto) Init(int, int, int64) sim.State { return coinState{lossy: p.lossy} }

type coinState struct {
	lossy   bool
	flipped bool
	outcome int64
}

func (s coinState) Action() sim.Action {
	if !s.flipped {
		return sim.Action{Kind: sim.ActFlip, Sides: 2}
	}
	return sim.Action{Kind: sim.ActDecide, Value: s.outcome}
}

func (s coinState) Advance(result int64) sim.State {
	if s.flipped {
		return sim.Halted{}
	}
	s.flipped, s.outcome = true, result
	return s
}

func (s coinState) AppendKey(buf []byte) []byte {
	buf = append(buf, 0x7F)
	if s.flipped {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	if s.lossy {
		return buf
	}
	return binary.AppendVarint(buf, s.outcome)
}
