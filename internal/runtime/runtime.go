// Package runtime provides the live (goroutine-world) shared object: one
// linearizable location of any object.Type over sync/atomic.  An Object
// applies its type's own Apply — the sequential semantics package valency
// checks over every schedule — so the live world runs the code the
// checker verified rather than a hand-written copy of it.
//
// consensus.Machine, the weak shared coin (package coin), the hand-written
// register consensus, package mutex and the examples run on Objects.  An
// Object can record its history (Recorder) so that executions can be
// checked for linearizability — the correctness condition §2 assumes of
// all shared objects — by package linearizability.
package runtime

import (
	"sync"
	"sync/atomic"

	"randsync/internal/object"
)

// Recorder collects a concurrent operation history.  The zero value is
// ready to use.  Recording costs one atomic increment before and after the
// operation plus a mutex-guarded append, none of which serialize the
// recorded operations themselves.
type Recorder struct {
	clock atomic.Int64
	hook  func(proc int, op object.Op)

	mu  sync.Mutex
	ops []RecordedOp
}

// SetHook installs f to be invoked, on the operating process's goroutine,
// immediately before each recorded operation takes effect.  It is the
// object-level fault-injection point: package fault uses it to stall,
// yield, or crash (panic out of) a process between operations of any
// recorded object.  A panic from f aborts the operation before it is
// applied and before it enters the history, so recorded histories stay
// linearizable — exactly crash-stop semantics.  Install the hook before
// concurrent operations begin; a nil f removes it.
func (r *Recorder) SetHook(f func(proc int, op object.Op)) { r.hook = f }

// RecordedOp is one completed operation: its invocation and response
// timestamps (from the recorder's logical clock), the operation performed,
// and the response observed.
type RecordedOp struct {
	Proc   int
	Op     object.Op
	Resp   int64
	Call   int64
	Return int64
}

// Record wraps fn with invocation/response timestamps and appends the
// completed operation to the history.  It is the hook by which any object
// — including custom or deliberately faulty ones in tests — participates
// in recorded histories; a nil receiver records nothing.
func (r *Recorder) Record(proc int, op object.Op, fn func() int64) int64 {
	if r == nil {
		return fn()
	}
	if r.hook != nil {
		r.hook(proc, op)
	}
	call := r.clock.Add(1)
	resp := fn()
	ret := r.clock.Add(1)
	r.mu.Lock()
	r.ops = append(r.ops, RecordedOp{Proc: proc, Op: op, Resp: resp, Call: call, Return: ret})
	r.mu.Unlock()
	return resp
}

// Ops returns a copy of the recorded history.
func (r *Recorder) Ops() []RecordedOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RecordedOp(nil), r.ops...)
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Object is a live shared object of one object.Type: a single word,
// padded to a 64-byte cache line so processes working on different
// objects do not contend, holding the type's value.
type Object struct {
	typ object.Type
	rec *Recorder
	v   atomic.Int64
	_   [32]byte
}

// NewObject returns an object of type typ at typ.Init(), recording its
// history to rec if rec is non-nil.
func NewObject(typ object.Type, rec *Recorder) *Object {
	o := &Object{typ: typ, rec: rec}
	o.v.Store(typ.Init())
	return o
}

// Do performs op on behalf of proc and returns its response.  It loads
// the value, applies the type's Apply, and publishes the new value by
// compare&swap unless it is unchanged, retrying from the load when
// another process published first.  That is linearizable for every
// single-word type — at the load when the value is unchanged, at the
// successful compare&swap otherwise.  Like Apply, Do panics on an op the
// type does not support.
func (o *Object) Do(proc int, op object.Op) int64 {
	if o.rec == nil {
		return o.apply(op)
	}
	return o.rec.Record(proc, op, func() int64 { return o.apply(op) })
}

// Read returns the current value.
func (o *Object) Read(proc int) int64 { return o.Do(proc, object.Op{Kind: object.Read}) }

func (o *Object) apply(op object.Op) int64 {
	for {
		old := o.v.Load()
		next, resp := o.typ.Apply(old, op)
		if next == old || o.v.CompareAndSwap(old, next) {
			return resp
		}
	}
}
