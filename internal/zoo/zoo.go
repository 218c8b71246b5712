// Package zoo is the protocol registry: one table maps every name that
// modelcheck, distcheck, checkd and the cluster wire format accept to its
// constructor, and Resolve bounds-checks a spec before building anything.
package zoo

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"randsync/internal/hierarchy"
	"randsync/internal/object"
	"randsync/internal/protocol"
	"randsync/internal/sim"
)

// Spec is a serializable protocol name: enough integers and one string
// to reconstruct the identical sim.Protocol on every node.  N is the
// process count (and an all-inputs sweep's vector width), R the object
// count of the flood family and scan-machine, Rounds register-consensus's
// round cap, and Seed scan-machine's generator seed.  The dist wire
// format and checkpoints encode the five fields in this order.
type Spec struct {
	Name   string // a registry name (see Names) or "machine:<type>:<freeStates>:<id>"
	N      int
	R      int
	Rounds int64
	Seed   uint64
}

func (s Spec) String() string {
	return fmt.Sprintf("%s(n=%d,r=%d,rounds=%d,seed=%d)", s.Name, s.N, s.R, s.Rounds, s.Seed)
}

// Flags declares the spec flags every checker CLI shares (-protocol,
// -n, -r, -rounds and -seed) on fs, one default per field, and returns
// the Spec that parsing fs fills.  The defaults agree with Examples:
// scan-machine's seed is 1 wherever a spec is named.
func Flags(fs *flag.FlagSet) *Spec {
	s := new(Spec)
	fs.StringVar(&s.Name, "protocol", "counter-walk", "protocol: "+strings.Join(Names(), ", "))
	fs.IntVar(&s.N, "n", 2, "number of processes")
	fs.IntVar(&s.R, "r", 2, "object count for flood protocols / scan-machine")
	fs.Int64Var(&s.Rounds, "rounds", 2, "round cap for register-consensus")
	fs.Uint64Var(&s.Seed, "seed", 1, "seed for scan-machine")
	return s
}

const (
	// MaxN bounds N for every entry: an all-inputs sweep checks 2^N vectors.
	MaxN = 16
	// MaxR bounds R for the entries that read it, so no spec makes a
	// constructor allocate without bound.
	MaxR = 1 << 10

	machinePrefix = "machine:"
	machineFamily = machinePrefix + "<type>:<freeStates>:<id>"
)

// field is the set of Spec parameters an entry reads besides Name.
type field uint8

const (
	readsN field = 1 << iota
	readsR
	readsRounds
	readsSeed
)

type entry struct {
	name    string
	reads   field
	build   func(Spec) (sim.Protocol, error)
	example Spec // one small spec that resolves; Name defaults to name
}

// fixed builds a parameterless protocol: one immutable value serves all.
func fixed(p sim.Protocol) func(Spec) (sim.Protocol, error) {
	return func(Spec) (sim.Protocol, error) { return p, nil }
}

// table is the registry, in Names order.  The machine example is the
// census's lowest-id sticky-bit solver.
var table = []entry{
	{"cas", 0, fixed(protocol.CASConsensus{}), Spec{N: 2}},
	{"sticky", 0, fixed(protocol.StickyConsensus{}), Spec{N: 2}},
	{"tas-2", 0, fixed(protocol.NewTAS2()), Spec{N: 2}},
	{"swap-2", 0, fixed(protocol.NewSwap2()), Spec{N: 2}},
	{"fetch&add-2", 0, fixed(protocol.NewFetchAdd2()), Spec{N: 2}},
	{"fetch&inc-2", 0, fixed(protocol.NewFetchInc2()), Spec{N: 2}},
	{"register-naive-2", 0, fixed(protocol.RegisterNaive2{}), Spec{N: 2}},
	{"counter-walk", readsN, func(s Spec) (sim.Protocol, error) { return protocol.NewCounterWalk(s.N), nil }, Spec{N: 2}},
	{"packed-fetch&add", readsN, func(s Spec) (sim.Protocol, error) {
		if s.N > protocol.MaxPackedN {
			return nil, fmt.Errorf("zoo: packed-fetch&add: n=%d exceeds MaxPackedN=%d", s.N, protocol.MaxPackedN)
		}
		return protocol.NewPackedFetchAdd(s.N), nil
	}, Spec{N: 2}},
	{"register-consensus", readsN | readsRounds, func(s Spec) (sim.Protocol, error) {
		return protocol.NewRegisterConsensus(s.N, s.Rounds), nil
	}, Spec{N: 2, Rounds: 2}},
	{"flood-registers", readsR, func(s Spec) (sim.Protocol, error) { return protocol.NewRegisterFlood(s.R), nil }, Spec{N: 2, R: 2}},
	{"flood-swap", readsR, func(s Spec) (sim.Protocol, error) { return protocol.NewSwapFlood(s.R), nil }, Spec{N: 2, R: 2}},
	{"flood-mixed", readsR, func(s Spec) (sim.Protocol, error) { return protocol.NewMixedFlood(s.R), nil }, Spec{N: 2, R: 2}},
	{"scan-machine", readsR | readsSeed, func(s Spec) (sim.Protocol, error) {
		return protocol.GenerateScanMachine(s.R, s.Seed), nil
	}, Spec{N: 2, R: 1, Seed: 1}},
	{machineFamily, 0, resolveMachine, Spec{Name: "machine:sticky-bit:2:26863", N: 2}},
}

var index = func() map[string]*entry {
	m := make(map[string]*entry, len(table))
	for i := range table {
		m[table[i].name] = &table[i]
	}
	return m
}()

// Names lists the registry in table order, the machine family as its pattern.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}

// Examples returns one small resolvable spec per name, in Names order.
func Examples() []Spec {
	specs := make([]Spec, len(table))
	for i, e := range table {
		specs[i] = e.example
		if specs[i].Name == "" {
			specs[i].Name = e.name
		}
	}
	return specs
}

// entry looks up s's registry entry and bounds-checks s, N against maxN.
func (s Spec) entry(maxN int) (*entry, error) {
	name := s.Name
	if strings.HasPrefix(name, machinePrefix) {
		name = machineFamily
	}
	e := index[name]
	if e == nil {
		return nil, fmt.Errorf("zoo: unknown protocol %q", s.Name)
	}
	if s.N < 1 || s.N > maxN {
		return nil, fmt.Errorf("zoo: n=%d out of range [1,%d]", s.N, maxN)
	}
	if e.reads&readsR != 0 && (s.R < 1 || s.R > MaxR) {
		return nil, fmt.Errorf("zoo: %s: r=%d out of range [1,%d]", s.Name, s.R, MaxR)
	}
	return e, nil
}

// Validate rejects an unknown name or an out-of-range parameter.
func (s Spec) Validate() error {
	_, err := s.entry(MaxN)
	return err
}

// Resolve validates a spec and builds the protocol it names,
// deterministically in the spec alone, so every node builds the same one.
func Resolve(s Spec) (sim.Protocol, error) { return s.resolve(MaxN) }

// ResolveLive is Resolve for one live run of s.N processes (package
// consensus).  A live run executes one input vector where a checker may
// sweep all 2^N, so MaxN does not bound it; the protocol's own limits
// (packed-fetch&add's MaxPackedN) still do.
func ResolveLive(s Spec) (sim.Protocol, error) { return s.resolve(math.MaxInt) }

func (s Spec) resolve(maxN int) (sim.Protocol, error) {
	e, err := s.entry(maxN)
	if err != nil {
		return nil, err
	}
	return e.build(s)
}

// resolveMachine decodes the wire coordinate of one enumerated hierarchy
// machine: the enumeration index is the whole protocol.
func resolveMachine(s Spec) (sim.Protocol, error) {
	if parts := strings.Split(s.Name, ":"); len(parts) == 4 {
		free, errF := strconv.Atoi(parts[2])
		id, errID := strconv.ParseUint(parts[3], 10, 64)
		for _, t := range []object.Type{object.RegisterType{}, object.StickyBitType{}, object.TestAndSetType{}} {
			if t.Name() == parts[1] && errF == nil && errID == nil {
				return hierarchy.MachineByID(t, free, id)
			}
		}
	}
	return nil, fmt.Errorf("zoo: machine spec %q: want machine:<register|sticky-bit|test&set>:<freeStates>:<id>", s.Name)
}

// MachineSpec names one hierarchy machine as a Spec, the hierarchy-search
// side of the cluster wiring (hierarchy.Options.Check).
func MachineSpec(m hierarchy.Machine, freeStates int) Spec {
	return Spec{Name: fmt.Sprintf("%s%s:%d:%d", machinePrefix, m.Type.Name(), freeStates, m.ID()), N: 2}
}
