package sim

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"randsync/internal/object"
)

// writeReadProto is a toy protocol: each process writes its input to a
// single shared register, reads it back, and decides the value it read.
// (It is not a correct consensus protocol; it exists to exercise the
// simulator.)
type writeReadProto struct{}

func (writeReadProto) Name() string           { return "write-read" }
func (writeReadProto) Objects() []object.Type { return []object.Type{object.RegisterType{Initial: -1}} }
func (writeReadProto) Identical() bool        { return true }
func (writeReadProto) Init(pid, n int, input int64) State {
	return wrState{input: input, pc: 0}
}

type wrState struct {
	input int64
	read  int64
	pc    uint8
}

func (s wrState) Action() Action {
	switch s.pc {
	case 0:
		return Action{Kind: ActOperate, Obj: 0, Op: object.Op{Kind: object.Write, Arg: s.input}}
	case 1:
		return Action{Kind: ActOperate, Obj: 0, Op: object.Op{Kind: object.Read}}
	default:
		return Action{Kind: ActDecide, Value: s.read}
	}
}

func (s wrState) Advance(result int64) State {
	switch s.pc {
	case 0:
		s.pc = 1
	case 1:
		s.read = result
		s.pc = 2
	default:
		return Halted{}
	}
	return s
}

func (s wrState) Key() string { return fmt.Sprintf("wr:%d:%d:%d", s.pc, s.input, s.read) }

// flipProto decides the outcome of a single coin flip.
type flipProto struct{}

func (flipProto) Name() string           { return "flip" }
func (flipProto) Objects() []object.Type { return nil }
func (flipProto) Identical() bool        { return true }
func (flipProto) Init(pid, n int, input int64) State {
	return flipState{}
}

type flipState struct {
	outcome int64
	flipped bool
}

func (s flipState) Action() Action {
	if !s.flipped {
		return Action{Kind: ActFlip, Sides: 2}
	}
	return Action{Kind: ActDecide, Value: s.outcome}
}

func (s flipState) Advance(result int64) State {
	if !s.flipped {
		return flipState{outcome: result, flipped: true}
	}
	return Halted{}
}

func (s flipState) Key() string { return fmt.Sprintf("f:%v:%d", s.flipped, s.outcome) }

// AppendKey implements KeyAppender so the test world exercises the compact
// path; wrState deliberately does not, covering the Key() fallback.
func (s flipState) AppendKey(buf []byte) []byte {
	buf = append(buf, 0x7F)
	if s.flipped {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return binary.AppendVarint(buf, s.outcome)
}

// tableState is a protocol state that is a pointer into a fixed table, so
// stepping it allocates nothing.  A flip moves to next[outcome]; any other
// action to next[0]; nil is the halted state.
type tableState struct {
	name string
	act  Action
	next [2]*tableState
}

func (s *tableState) Action() Action { return s.act }
func (s *tableState) Key() string    { return s.name }

func (s *tableState) Advance(result int64) State {
	i := 0
	if s.act.Kind == ActFlip {
		i = int(result)
	}
	if s.next[i] == nil {
		return Halted{}
	}
	return s.next[i]
}

// retryProto flips two coins in a row.  Outcome 0 of either leads to a
// spin: reads of R0 forever, or, with halt set, a halt without deciding.
// Outcome 1 of both decides 1 on the third step, so every deciding solo
// run backtracks over both coins first.
type retryProto struct {
	halt  bool
	start *tableState
}

func newRetryProto(halt bool) retryProto {
	spin := &tableState{name: "spin", act: Action{Kind: ActOperate, Obj: 0, Op: object.Op{Kind: object.Read}}}
	spin.next[0] = spin
	if halt {
		spin = &tableState{name: "stop", act: Action{Kind: ActHalt}}
	}
	decide := &tableState{name: "d1", act: Action{Kind: ActDecide, Value: 1}}
	second := &tableState{name: "b", act: Action{Kind: ActFlip, Sides: 2}, next: [2]*tableState{spin, decide}}
	first := &tableState{name: "a", act: Action{Kind: ActFlip, Sides: 2}, next: [2]*tableState{spin, second}}
	return retryProto{halt: halt, start: first}
}

func (p retryProto) Name() string {
	if p.halt {
		return "retry-halt"
	}
	return "retry-spin"
}
func (retryProto) Objects() []object.Type               { return []object.Type{object.RegisterType{}} }
func (retryProto) Identical() bool                      { return true }
func (p retryProto) Init(pid, n int, input int64) State { return p.start }

func TestStepAndDecide(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	if got := c.N(); got != 2 {
		t.Fatalf("N = %d, want 2", got)
	}
	if got := c.R(); got != 1 {
		t.Fatalf("R = %d, want 1", got)
	}
	if c.Objects[0] != -1 {
		t.Fatalf("initial register = %d, want -1", c.Objects[0])
	}

	// P0 writes 0; P1 writes 1; P0 reads 1; P0 decides 1.
	steps := []struct {
		pid      int
		wantKind ActionKind
	}{{0, ActOperate}, {1, ActOperate}, {0, ActOperate}, {0, ActDecide}}
	for i, s := range steps {
		if got := c.Pending(s.pid).Kind; got != s.wantKind {
			t.Fatalf("step %d: pending kind %v, want %v", i, got, s.wantKind)
		}
		if _, err := c.Step(s.pid, 0); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !c.Decided[0] || c.Decision[0] != 1 {
		t.Fatalf("P0 decided=%v decision=%d, want decided 1", c.Decided[0], c.Decision[0])
	}
	if _, err := c.Step(0, 0); err == nil {
		t.Fatal("stepping a halted process should error")
	}
}

func TestPoisedAt(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	obj, ok := c.PoisedAt(0)
	if !ok || obj != 0 {
		t.Fatalf("P0 should be poised at R0 (write); got obj=%d ok=%v", obj, ok)
	}
	if _, err := c.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	// P0 is now about to read: trivial, so not poised.
	if _, ok := c.PoisedAt(0); ok {
		t.Fatal("P0 about to read should not be poised")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	d := c.Clone()
	if _, err := c.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	if d.Objects[0] != -1 {
		t.Fatal("clone shares object storage with original")
	}
	if d.Steps[0] != 0 {
		t.Fatal("clone shares step counts with original")
	}
	if d.Pending(0).Kind != ActOperate || d.Pending(0).Op.Kind != object.Write {
		t.Fatal("clone state advanced with original")
	}
}

func TestCloneIntoReusesStorageIndependently(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	if _, err := c.Step(0, 0); err != nil {
		t.Fatal(err)
	}

	// nil destination behaves like Clone.
	d := c.CloneInto(nil)
	if d.Key() != c.Key() {
		t.Fatalf("CloneInto(nil) key %q, want %q", d.Key(), c.Key())
	}

	// Reusing a stale destination must overwrite it completely and reuse
	// its slice storage without sharing any with the source.
	stale := NewConfig(writeReadProto{}, []int64{1, 1})
	for _, pid := range []int{0, 1, 1} {
		if _, err := stale.Step(pid, 0); err != nil {
			t.Fatal(err)
		}
	}
	buf := &stale.Objects[0]
	got := c.CloneInto(stale)
	if got != stale {
		t.Fatal("CloneInto must return its destination")
	}
	if got.Key() != c.Key() {
		t.Fatalf("recycled clone key %q, want %q", got.Key(), c.Key())
	}
	if &got.Objects[0] != buf {
		t.Fatal("CloneInto reallocated a destination slice that had capacity")
	}
	if _, err := c.Step(1, 0); err != nil {
		t.Fatal(err)
	}
	if got.Key() == c.Key() {
		t.Fatal("recycled clone shares storage with the source")
	}
	if got.Steps[1] != 0 {
		t.Fatal("recycled clone shares step counts with the source")
	}
}

func TestApplyReplaysAndVerifies(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	var exec Execution
	for _, pid := range []int{0, 1, 0, 0, 1, 1} {
		ev, err := c.Step(pid, 0)
		if err != nil {
			t.Fatal(err)
		}
		exec = append(exec, ev)
	}
	// Replaying from a fresh config must succeed and land in the same state.
	d := NewConfig(writeReadProto{}, []int64{0, 1})
	if err := d.Apply(exec); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if d.Key() != c.Key() {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", d.Key(), c.Key())
	}

	// Tampering with a recorded response must be caught.
	bad := append(Execution(nil), exec...)
	bad[2].Result = 42 // P0's read of the register
	d2 := NewConfig(writeReadProto{}, []int64{0, 1})
	if err := d2.Apply(bad); err == nil {
		t.Fatal("replay of tampered execution should fail")
	}

	// Replaying from a mismatched configuration must be caught.
	d3 := NewConfig(writeReadProto{}, []int64{1, 1})
	if err := d3.Apply(exec); err == nil {
		t.Fatal("replay from wrong initial config should fail")
	}
}

func TestFlipOutcomeValidation(t *testing.T) {
	c := NewConfig(flipProto{}, []int64{0})
	if _, err := c.Step(0, 2); err == nil {
		t.Fatal("out-of-range flip outcome should error")
	}
	if _, err := c.Step(0, -1); err == nil {
		t.Fatal("negative flip outcome should error")
	}
	if _, err := c.Step(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Pending(0); got.Kind != ActDecide || got.Value != 1 {
		t.Fatalf("pending after flip = %v, want decide(1)", got)
	}
}

func TestSoloTerminate(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	exec, decision, ok := SoloTerminate(c, 1, 100)
	if !ok {
		t.Fatal("solo termination not found")
	}
	if decision != 1 {
		t.Fatalf("solo decision = %d, want 1 (own input)", decision)
	}
	if len(exec) != 3 {
		t.Fatalf("solo execution length = %d, want 3 (write, read, decide)", len(exec))
	}
	// c must be untouched.
	if c.Steps[1] != 0 {
		t.Fatal("SoloTerminate mutated its input configuration")
	}
	// The found execution must replay.
	if err := c.Clone().Apply(exec); err != nil {
		t.Fatalf("solo execution does not replay: %v", err)
	}
}

func TestSoloTerminateBudget(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0})
	if _, _, ok := SoloTerminate(c, 0, 2); ok {
		t.Fatal("budget 2 cannot fit write+read+decide")
	}
	if _, _, ok := SoloTerminate(c, 0, 3); !ok {
		t.Fatal("budget 3 should fit write+read+decide")
	}
}

func TestSoloTerminateAlreadyDecided(t *testing.T) {
	c := NewConfig(flipProto{}, []int64{0})
	mustStep(t, c, 0, 0)
	mustStep(t, c, 0, 0)
	exec, decision, ok := SoloTerminate(c, 0, 10)
	if !ok || decision != 0 || len(exec) != 0 {
		t.Fatalf("got exec=%v decision=%d ok=%v, want empty/0/true", exec, decision, ok)
	}
}

func TestSoloDecisionsExploresFlips(t *testing.T) {
	c := NewConfig(flipProto{}, []int64{0})
	got := SoloDecisions(c, 0, 10)
	if !got[0] || !got[1] || len(got) != 2 {
		t.Fatalf("SoloDecisions = %v, want {0,1}", got)
	}
}

func TestCloneProcess(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 0, 1})
	mustStep(t, c, 0, 0) // P0 past its write, about to read
	if err := c.CloneProcess(0, 1); err != nil {
		t.Fatalf("clone with equal inputs: %v", err)
	}
	if c.Pending(1) != c.Pending(0) {
		t.Fatal("clone does not share src's pending action")
	}
	if err := c.CloneProcess(0, 2); err == nil {
		t.Fatal("clone across different inputs should error")
	}
	mustStep(t, c, 2, 0)
	if err := c.CloneProcess(0, 2); err == nil {
		t.Fatal("clone onto a process that has taken steps should error")
	}
	if err := c.CloneProcess(0, 0); err == nil {
		t.Fatal("clone onto itself should error")
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	a := NewConfig(writeReadProto{}, []int64{0, 1})
	b := NewConfig(writeReadProto{}, []int64{0, 1})
	if a.Key() != b.Key() {
		t.Fatal("identical configs should share a key")
	}
	mustStep(t, b, 0, 0)
	if a.Key() == b.Key() {
		t.Fatal("differing configs should have different keys")
	}
}

func TestExecutionString(t *testing.T) {
	c := NewConfig(writeReadProto{}, []int64{0, 1})
	var exec Execution
	for _, pid := range []int{0, 0, 0} {
		ev, err := c.Step(pid, 0)
		if err != nil {
			t.Fatal(err)
		}
		exec = append(exec, ev)
	}
	s := exec.String()
	for _, want := range []string{"P0: R0.write(0)", "P0: R0.read", "P0: decide(0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("execution string missing %q:\n%s", want, s)
		}
	}
	if pids := exec.ByProcess(); len(pids) != 1 || pids[0] != 0 {
		t.Errorf("ByProcess = %v, want [0]", pids)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(writeReadProto{}, 3); err != nil {
		t.Errorf("write-read should validate: %v", err)
	}
}

func mustStep(t *testing.T, c *Config, pid int, outcome int64) Event {
	t.Helper()
	ev, err := c.Step(pid, outcome)
	if err != nil {
		t.Fatalf("step P%d: %v", pid, err)
	}
	return ev
}
