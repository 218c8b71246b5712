package protocol

import "encoding/binary"

// Visited-set keys (sim.State.AppendKey) for every state type in the
// package.  Each encoding is a type tag unique across the package (sim
// uses 0x01 for Halted; package hierarchy uses 0x30) followed by every
// field that determines the state's behaviour, self-delimiting.  Equal
// keys must mean equal behaviour: valency's TestStateKeyCongruence
// checks it on every protocol the zoo registers.  Some fields repeat
// what the configuration key already holds (a copy of the slot's input
// or pid, a protocol constant such as n); that costs bytes, not
// soundness, and dropping one would change the retained key bytes that
// verdict documents report.

const (
	keyTagDecide byte = 0x10 + iota
	keyTagCAS
	keyTagSticky
	keyTagNaive
	keyTagWL
	keyTagWalk
	keyTagPFA
	keyTagFlood
	keyTagRC
	keyTagSM
)

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendKey implements sim.State.
func (s decideState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagDecide)
	return binary.AppendVarint(buf, s.v)
}

// AppendKey implements sim.State.
func (s casState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagCAS)
	return binary.AppendVarint(buf, s.input)
}

// AppendKey implements sim.State.
func (s stickyState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagSticky)
	return binary.AppendVarint(buf, s.input)
}

// AppendKey implements sim.State.
func (s naiveState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagNaive)
	buf = binary.AppendVarint(buf, int64(s.pid))
	buf = binary.AppendVarint(buf, s.input)
	return binary.AppendUvarint(buf, uint64(s.pc))
}

// AppendKey implements sim.State.  The protocol name is encoded too
// (length-prefixed, self-delimiting): it selects the objects and
// operations the program runs.
func (s wlState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagWL)
	buf = binary.AppendUvarint(buf, uint64(len(s.proto.name)))
	buf = append(buf, s.proto.name...)
	buf = binary.AppendVarint(buf, int64(s.pid))
	buf = binary.AppendVarint(buf, s.input)
	return binary.AppendUvarint(buf, uint64(s.pc))
}

// AppendKey implements sim.State.
func (s walkState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagWalk)
	buf = binary.AppendUvarint(buf, uint64(s.pc))
	buf = binary.AppendVarint(buf, s.input)
	buf = binary.AppendVarint(buf, s.a)
	return binary.AppendVarint(buf, s.n)
}

// AppendKey implements sim.State.
func (s pfaState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagPFA)
	buf = binary.AppendUvarint(buf, uint64(s.pc))
	buf = binary.AppendVarint(buf, s.input)
	return binary.AppendVarint(buf, s.n)
}

// AppendKey implements sim.State.  views is length-prefixed and
// distinguished by contents only, never nil-versus-empty.
func (s floodState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagFlood)
	buf = binary.AppendVarint(buf, s.pref)
	buf = binary.AppendUvarint(buf, uint64(len(s.views)))
	for _, v := range s.views {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// AppendKey implements sim.State.
func (s rcState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagRC)
	buf = binary.AppendVarint(buf, int64(s.pid))
	buf = binary.AppendVarint(buf, s.pref)
	buf = binary.AppendVarint(buf, s.round)
	buf = binary.AppendUvarint(buf, uint64(s.phase))
	buf = binary.AppendVarint(buf, int64(s.idx))
	buf = binary.AppendVarint(buf, s.coin)
	buf = appendBool(buf, s.conflict)
	buf = appendBool(buf, s.anyHigher)
	buf = appendBool(buf, s.anyFalseR)
	return binary.AppendVarint(buf, s.trueVal)
}

// AppendKey implements sim.State.  The scan view is keyed by its
// contents, and the nil view (before the first operation) by the
// length no view reaches, len(Types)+1: pc wraps, so an empty view can
// share pc 0 with it.
func (s smState) AppendKey(buf []byte) []byte {
	buf = append(buf, keyTagSM)
	buf = binary.AppendVarint(buf, s.pref)
	buf = binary.AppendVarint(buf, int64(s.pc))
	n := len(s.scan)
	if s.scan == nil {
		n = len(s.proto.Types) + 1
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, v := range s.scan {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}
