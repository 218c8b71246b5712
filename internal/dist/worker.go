package dist

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"randsync/internal/explore"
	"randsync/internal/frame"
	"randsync/internal/sim"
	"randsync/internal/valency"
	"randsync/internal/zoo"
)

// WorkerOptions configure one worker process.
type WorkerOptions struct {
	// Hook, when non-nil, runs at the start of every received batch
	// (argument: batch id).  It is the fault-injection seam: a hook
	// that panics kills the worker mid-batch with its effects unsent,
	// exactly the failure the recovery protocol must absorb.
	Hook func(batchID int64)
	// ID is the worker's stable identity, announced in every HELLO so
	// the coordinator treats a re-handshake as a rejoin of the same
	// peer, not a new one.  Zero picks a random identity at Work start;
	// distinct workers must use distinct identities.  It also seeds the
	// backoff jitter, so a worker's retry schedule is reproducible.
	ID uint64
	// MaxAttempts caps consecutive failed connection attempts before
	// Work gives up (default 30).  A session that gets as far as a job
	// resets the counter: only a coordinator that stays unreachable
	// exhausts the worker.
	MaxAttempts int
	// BaseBackoff and MaxBackoff bound the exponential retry delay
	// (defaults 50ms and 2s); each wait is jittered into the upper half
	// of its window.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// NetTimeout bounds every read and write on the connection (default
	// 30s) — a silent coordinator errors the session into the retry
	// loop instead of wedging the worker.
	NetTimeout time.Duration
	// Done, when non-nil, cancels the retry loop: Work returns nil at
	// the next retry boundary after Done closes.  It does not interrupt
	// an established session — closing the connection does that.
	Done <-chan struct{}
}

func (o WorkerOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 30
	}
	return o.MaxAttempts
}

func (o WorkerOptions) baseBackoff() time.Duration {
	if o.BaseBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return o.BaseBackoff
}

func (o WorkerOptions) maxBackoff() time.Duration {
	if o.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return o.MaxBackoff
}

func (o WorkerOptions) netTimeout() time.Duration {
	if o.NetTimeout <= 0 {
		return 30 * time.Second
	}
	return o.NetTimeout
}

// randomID draws a non-zero identity from the OS entropy source.
func randomID() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// Entropy failure: fall back to the clock; uniqueness, not
			// unpredictability, is all an identity needs.
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// Work connects to the coordinator at addr and processes batches until
// the coordinator sends STOP (returns nil).  A lost connection is not
// fatal: Work re-dials under seeded exponential backoff with jitter,
// re-handshakes with the same identity, and resumes taking batches —
// the coordinator recognizes the identity and treats it as a rejoin.
// Work gives up (returning the last error) only after MaxAttempts
// consecutive failures without reaching a job, and returns nil if
// opts.Done closes first.
//
// A worker is stateless between batches: all authority lives in the
// coordinator, so a worker crash or reconnect at any point loses only
// unacknowledged work.
func Work(addr string, opts WorkerOptions) error {
	if opts.ID == 0 {
		opts.ID = randomID()
	}
	rng := rand.New(rand.NewPCG(opts.ID, 0xbacc0ff))
	attempts := 0
	var lastErr error
	for {
		conn, err := net.DialTimeout("tcp", addr, opts.netTimeout())
		if err == nil {
			var progressed bool
			// The deferred close must run even when a batch hook panics:
			// the unwinding connection drop is what the coordinator
			// observes as this worker's death.
			progressed, err = func() (bool, error) {
				defer conn.Close()
				return serveWorker(conn, opts)
			}()
			if err == nil {
				return nil // clean STOP
			}
			if progressed {
				attempts = 0
			}
		}
		attempts++
		lastErr = err
		if attempts >= opts.maxAttempts() {
			return fmt.Errorf("dist: worker %#x giving up after %d attempts: %w", opts.ID, attempts, lastErr)
		}
		if !sleepBackoff(rng, opts, attempts) {
			return nil // Done closed
		}
	}
}

// sleepBackoff waits the jittered exponential delay for the given
// attempt number; it reports false if opts.Done closed instead.
func sleepBackoff(rng *rand.Rand, opts WorkerOptions, attempt int) bool {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := opts.baseBackoff() << shift
	if d <= 0 || d > opts.maxBackoff() {
		d = opts.maxBackoff()
	}
	// Jitter into [d/2, d]: desynchronizes a worker fleet re-dialing a
	// restarted coordinator without stretching the worst case.
	d = d/2 + time.Duration(rng.Int64N(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-opts.Done:
		return false
	case <-t.C:
		return true
	}
}

// serveWorker runs the worker protocol over an established connection.
// progressed reports whether the session got at least as far as a job —
// the signal that resets the retry budget.
func serveWorker(conn net.Conn, opts WorkerOptions) (progressed bool, err error) {
	timeout := opts.netTimeout()
	bw := bufio.NewWriter(conn)
	flush := func() error {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		return bw.Flush()
	}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := frame.Write(bw, msgHello, helloMsg{Version: wireVersion, Identity: opts.ID}.encode()); err != nil {
		return false, err
	}
	if err := flush(); err != nil {
		return false, err
	}
	br := bufio.NewReader(conn)

	var st *workerState
	for {
		conn.SetReadDeadline(time.Now().Add(timeout))
		typ, payload, err := frame.Read(br)
		if err != nil {
			return progressed, err
		}
		switch typ {
		case msgJob:
			jm, err := decodeJob(payload)
			if err != nil {
				return progressed, err
			}
			if st != nil && jm.Epoch <= st.epoch {
				// A duplicated or reordered copy of a job already loaded
				// (or of an older vector's): the loaded state is at least
				// as new, so the frame is noise.
				break
			}
			st, err = newWorkerState(jm)
			if err != nil {
				return progressed, err
			}
			progressed = true
		case msgBatch:
			if st == nil {
				// A reordered BATCH overtook its JOB (wire chaos): error
				// the session; the rejoin gets the job re-sent first.
				return progressed, fmt.Errorf("dist: batch before job")
			}
			bm, err := decodeBatch(payload)
			if err != nil {
				return progressed, err
			}
			if bm.Epoch > st.epoch {
				// The batch overtook its JOB frame (reordered on the
				// wire): processing against the loaded (older) vector
				// would explore the wrong state space.  Error the session;
				// the rejoin gets the current job re-sent first.
				return progressed, fmt.Errorf("dist: batch epoch %d overtook job epoch %d", bm.Epoch, st.epoch)
			}
			if bm.Epoch < st.epoch {
				// A duplicated leftover of an earlier vector: the
				// coordinator has moved on and would discard the ack.
				break
			}
			if opts.Hook != nil {
				opts.Hook(bm.ID)
			}
			done, err := st.process(bm)
			if err != nil {
				return progressed, err
			}
			conn.SetWriteDeadline(time.Now().Add(timeout))
			if err := frame.Write(bw, msgDone, done.encode()); err != nil {
				return progressed, err
			}
			if err := flush(); err != nil {
				return progressed, err
			}
		case msgPing:
			conn.SetWriteDeadline(time.Now().Add(timeout))
			if err := frame.Write(bw, msgPong, payload); err != nil {
				return progressed, err
			}
			if err := flush(); err != nil {
				return progressed, err
			}
		case msgStop:
			return progressed, nil
		default:
			return progressed, fmt.Errorf("dist: unexpected frame type %d", typ)
		}
	}
}

// workerState is the per-input-vector replay context.
type workerState struct {
	proto   sim.Protocol
	inputs  []int64
	epoch   uint64
	vopts   valency.Options
	valid   map[int64]bool
	workers int // Each fan-out width per batch
}

func newWorkerState(jm jobMsg) (*workerState, error) {
	proto, err := zoo.Resolve(jm.Spec)
	if err != nil {
		return nil, err
	}
	st := &workerState{
		proto:  proto,
		inputs: jm.Inputs,
		epoch:  jm.Epoch,
		vopts: valency.Options{
			NoSymmetry: jm.NoSymmetry,
			Crash:      jm.Crash,
		},
		valid:   make(map[int64]bool, len(jm.Inputs)),
		workers: jm.Workers,
	}
	if st.workers < 1 {
		st.workers = runtime.GOMAXPROCS(0)
	}
	for _, in := range jm.Inputs {
		st.valid[in] = true
	}
	return st, nil
}

// wslot is one fan-out worker's private effect buffer; merged after
// the batch drains so slots never contend.
type wslot struct {
	keyer     sim.Keyer
	buf       []byte
	emits     []emit
	decisions map[int64]bool
	generated int64
}

// process replays, safety-checks and expands every item of a batch and
// returns the batch's atomic effect set.  Items fan out across the
// worker's explore.Each fan-out; the frontier does not grow locally —
// every successor is an emit, and admission is the coordinator's call.
func (st *workerState) process(bm batchMsg) (doneMsg, error) {
	slots := make([]wslot, min(st.workers, len(bm.Items)))
	for i := range slots {
		slots[i].decisions = make(map[int64]bool)
		slots[i].keyer.Symmetry = st.vopts.SymmetryOn()
	}
	var violated atomic.Bool
	var firstErr atomic.Value

	explore.Each(st.workers, len(bm.Items), func(wid, i int) bool {
		w, it := &slots[wid], bm.Items[i]
		c := sim.NewConfig(st.proto, st.inputs)
		if err := c.ReplaySchedule(it.sched); err != nil {
			firstErr.CompareAndSwap(nil, fmt.Errorf("dist: item %d: %w", it.id, err))
			return false
		}
		if valency.Unsafe(c, st.vopts, st.valid, w.decisions) {
			violated.Store(true)
			return false
		}
		_, err := st.vopts.Successors(c, func(pid int, out int64, _ sim.Event) bool {
			w.generated++
			w.buf = st.vopts.AppendVisitKey(&w.keyer, c, w.buf[:0])
			w.emits = append(w.emits, emit{
				from:  it.id,
				key:   append([]byte(nil), w.buf...),
				sched: sim.AppendScheduleStep(append([]byte(nil), it.sched...), pid, out),
			})
			return false
		})
		if err != nil {
			// The serial checker reports this as Stuck; defer.
			violated.Store(true)
			return false
		}
		return true
	})

	if err, _ := firstErr.Load().(error); err != nil {
		return doneMsg{}, err
	}
	done := doneMsg{ID: bm.ID, Epoch: st.epoch, Violated: violated.Load()}
	decs := make(map[int64]bool)
	for i := range slots {
		done.Generated += slots[i].generated
		done.Emits = append(done.Emits, slots[i].emits...)
		for v := range slots[i].decisions {
			decs[v] = true
		}
	}
	for v := range decs {
		done.Decisions = append(done.Decisions, v)
	}
	sort.Slice(done.Decisions, func(a, b int) bool { return done.Decisions[a] < done.Decisions[b] })
	return done, nil
}

// verifyKey is used by tests to assert replay integrity directly.
func (st *workerState) verifyKey(it item, want []byte) error {
	c := sim.NewConfig(st.proto, st.inputs)
	if err := c.ReplaySchedule(it.sched); err != nil {
		return err
	}
	var k sim.Keyer
	k.Symmetry = st.vopts.SymmetryOn()
	got := st.vopts.AppendVisitKey(&k, c, nil)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("dist: item %d replays to a different visit key", it.id)
	}
	return nil
}
