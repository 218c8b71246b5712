package sim

import (
	"testing"
	"testing/quick"
)

// TestQuickReplayIdentity: for random seeds, the execution recorded by a
// random run replays on a fresh configuration to an identical final
// configuration (the paper's determinism-of-replay assumption, which the
// §3 constructions rely on).
func TestQuickReplayIdentity(t *testing.T) {
	f := func(seed uint64, inputBits uint8) bool {
		inputs := []int64{int64(inputBits & 1), int64(inputBits >> 1 & 1), int64(inputBits >> 2 & 1)}
		res, err := Run(writeReadProto{}, inputs, seed, RunOptions{RecordExec: true})
		if err != nil {
			return false
		}
		a := NewConfig(writeReadProto{}, inputs)
		if err := a.Apply(res.Exec); err != nil {
			return false
		}
		b := NewConfig(writeReadProto{}, inputs)
		if err := b.Apply(res.Exec); err != nil {
			return false
		}
		return keyOf(a) == keyOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPrefixReplay: every prefix of a recorded execution is itself a
// legal execution (prefix-closure, used when truncating solo runs).
func TestQuickPrefixReplay(t *testing.T) {
	f := func(seed uint64, cut uint8) bool {
		inputs := []int64{0, 1}
		res, err := Run(writeReadProto{}, inputs, seed, RunOptions{RecordExec: true})
		if err != nil {
			return false
		}
		k := int(cut) % (len(res.Exec) + 1)
		c := NewConfig(writeReadProto{}, inputs)
		return c.Apply(res.Exec[:k]) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCloneIsolation: cloning a configuration and running the clone
// never disturbs the original.
func TestQuickCloneIsolation(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		inputs := []int64{1, 0}
		c := NewConfig(writeReadProto{}, inputs)
		key := keyOf(c)
		d := c.Clone()
		// Advance the clone arbitrarily.
		for i := 0; i < int(steps%8); i++ {
			pid := i % 2
			if d.Pending(pid).Kind == ActHalt {
				continue
			}
			if _, err := d.Step(pid, 0); err != nil {
				return false
			}
		}
		return keyOf(c) == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSoloTerminateDeterministic: SoloTerminate is a pure function
// of the configuration.
func TestQuickSoloTerminateDeterministic(t *testing.T) {
	f := func(pid8 uint8) bool {
		inputs := []int64{0, 1, 1}
		pid := int(pid8) % 3
		c := NewConfig(writeReadProto{}, inputs)
		e1, d1, ok1 := SoloTerminate(c, pid, 100)
		e2, d2, ok2 := SoloTerminate(c, pid, 100)
		if ok1 != ok2 || d1 != d2 || len(e1) != len(e2) {
			return false
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickKeyDeterminism: configurations reached by the same event
// sequence have equal keys; stepping any process changes the key.
func TestQuickKeyDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		inputs := []int64{0, 1}
		r1, err := Run(flipProto{}, inputs, seed, RunOptions{RecordExec: true})
		if err != nil {
			return false
		}
		a := NewConfig(flipProto{}, inputs)
		if err := a.Apply(r1.Exec); err != nil {
			return false
		}
		b := NewConfig(flipProto{}, inputs)
		if err := b.Apply(r1.Exec); err != nil {
			return false
		}
		return keyOf(a) == keyOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
