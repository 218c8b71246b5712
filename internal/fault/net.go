package fault

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Network chaos: the wire-level extension of the package's seeded Plan
// model.  Where Plan/Injector perturb shared-memory steps of the live
// protocols, NetChaos perturbs the frames of a length-prefixed wire
// protocol (internal/dist's [4B len][body] framing): a NetProxy sits
// between client and server as a man-in-the-middle and, per frame,
// decides from a seeded RNG whether to delay it, duplicate it, reorder
// it with its successor, truncate it mid-frame (tearing the
// connection), or — on a fixed deterministic cadence — cut the
// connection cleanly.  It never loses a frame on a connection that
// lives on: that is the one fault TCP cannot produce, and the cluster
// it exercises assumes as much.
//
// Determinism: every proxied connection carries two streams (client→
// server, server→client), and each stream's decision sequence is a pure
// function of (chaos seed, stream key, session index, direction), where
// the stream key is the fingerprint of the first frame the client sends.
// For internal/dist that first frame is the worker's HELLO, which embeds
// its stable identity — so a given worker's k-th connection attempt sees
// the same chaos on every run with the same seed, and a failing soak
// reproduces from its seed alone.

// NetKind discriminates wire-chaos event kinds.
type NetKind uint8

const (
	// NetDelay holds one frame back for a bounded interval.
	NetDelay NetKind = iota
	// NetDup forwards one frame twice.
	NetDup
	// NetReorder swaps one frame with its successor on the same stream.
	NetReorder
	// NetTruncate forwards a prefix of one frame's bytes and then tears
	// the connection down — a torn write, the checksum-failure case.
	NetTruncate
	// NetCut closes the connection cleanly between frames (the
	// deterministic CutEvery cadence).
	NetCut
)

// String implements fmt.Stringer.
func (k NetKind) String() string {
	switch k {
	case NetDelay:
		return "delay"
	case NetDup:
		return "dup"
	case NetReorder:
		return "reorder"
	case NetTruncate:
		return "truncate"
	case NetCut:
		return "cut"
	}
	return fmt.Sprintf("netkind(%d)", uint8(k))
}

// NetPlanOptions shape a chaos seed into per-frame event rates.  Rates
// are per mille (0–1000) and drawn from a single roll per frame, so at
// most one event fires per frame; the zero value injects nothing.
type NetPlanOptions struct {
	// DelayPerMille is the probability (‰) of delaying a frame by up to
	// MaxDelay.
	DelayPerMille int
	// DupPerMille is the probability (‰) of forwarding a frame twice.
	DupPerMille int
	// ReorderPerMille is the probability (‰) of swapping a frame with
	// its successor.
	ReorderPerMille int
	// TruncatePerMille is the probability (‰) of truncating a frame
	// mid-body and tearing the connection.
	TruncatePerMille int
	// CutEvery, when positive, cleanly cuts the connection at every
	// CutEvery-th client→server frame — the deterministic partition
	// cadence (the reconnect test's primary tool).
	CutEvery int
	// MaxDelay bounds each injected delay (0 means 2ms).  Keep it well
	// under the cluster's DeadAfter or every delay escalates to a death.
	MaxDelay time.Duration
}

func (o NetPlanOptions) maxDelay() time.Duration {
	if o.MaxDelay <= 0 {
		return 2 * time.Millisecond
	}
	return o.MaxDelay
}

// rate clamps the summed per-frame event probability at 500‰ so chaos
// can never starve a stream of all progress.
func (o NetPlanOptions) thresholds() (delay, dup, reorder, trunc int) {
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > 1000 {
			return 1000
		}
		return v
	}
	delay = clamp(o.DelayPerMille)
	dup = delay + clamp(o.DupPerMille)
	reorder = dup + clamp(o.ReorderPerMille)
	trunc = reorder + clamp(o.TruncatePerMille)
	if trunc > 500 {
		scale := func(v int) int { return v * 500 / trunc }
		delay, dup, reorder, trunc = scale(delay), scale(dup), scale(reorder), scale(trunc)
	}
	return
}

// DefaultNetPlan is the soak-test mix: every per-frame chaos kind
// fires, none often enough to stall the run (≈5% of frames see an
// event).
func DefaultNetPlan() NetPlanOptions {
	return NetPlanOptions{
		DelayPerMille:    25,
		DupPerMille:      10,
		ReorderPerMille:  10,
		TruncatePerMille: 3,
		MaxDelay:         2 * time.Millisecond,
	}
}

// NetChaos derives per-stream decision sequences from one seed and
// counts every event fired.  One NetChaos serves one proxy (and one
// soak run); it is safe for concurrent use by the proxy's streams.
type NetChaos struct {
	seed uint64
	opts NetPlanOptions

	events [NetCut + 1]atomic.Int64 // indexed by NetKind
	total  atomic.Int64

	mu       sync.Mutex
	sessions map[uint64]uint64 // stream key -> next session index
	log      []string          // bounded event log for reports
}

// NewNetChaos returns a chaos engine for the given seed and rates.
func NewNetChaos(seed uint64, opts NetPlanOptions) *NetChaos {
	return &NetChaos{seed: seed, opts: opts, sessions: make(map[uint64]uint64)}
}

// Seed returns the seed the chaos decisions derive from.
func (c *NetChaos) Seed() uint64 { return c.seed }

// Events returns the total number of chaos events fired so far.
func (c *NetChaos) Events() int64 { return c.total.Load() }

// Count returns how many events of one kind have fired.
func (c *NetChaos) Count(k NetKind) int64 { return c.events[k].Load() }

// Log returns the recorded event descriptions, in firing order (bounded
// at 512 entries; later events are counted but not logged).
func (c *NetChaos) Log() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.log...)
}

func (c *NetChaos) record(k NetKind, stream string, frame int64) {
	c.events[k].Add(1)
	c.total.Add(1)
	c.mu.Lock()
	if len(c.log) < 512 {
		c.log = append(c.log, fmt.Sprintf("%s frame %d: %v", stream, frame, k))
	}
	c.mu.Unlock()
}

// session allocates the next session index for a stream key (one per
// proxied connection), so a worker's reconnects each see fresh — but
// still seed-determined — chaos.
func (c *NetChaos) session(key uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[key]
	c.sessions[key] = s + 1
	return s
}

// netDecision is the chaos verdict for one frame.
type netDecision struct {
	kind  NetKind
	fire  bool
	delay time.Duration
	// keep is the byte count forwarded before a truncate tears the
	// connection (at least the length prefix, never the whole frame).
	keep int
}

// netStream is the deterministic decision source for one direction of
// one proxied connection.
type netStream struct {
	chaos  *NetChaos
	rng    *rand.Rand
	label  string
	frames int64
	cut    bool // c2s streams carry the CutEvery cadence
}

// Stream returns the decision stream for (key, session, direction); the
// proxy derives key from the first client frame.  Exposed (lowercase
// via newStream internally, and through NetStreamDecisions for tests)
// so determinism is testable without sockets.
func (c *NetChaos) newStream(key, session uint64, dir string, cut bool) *netStream {
	mix := key ^ (session * 0x9e3779b97f4a7c15)
	if dir == "s2c" {
		mix ^= 0x5bf03635
	}
	return &netStream{
		chaos: c,
		rng:   rand.New(rand.NewPCG(c.seed, mix)),
		label: fmt.Sprintf("%s key=%x s=%d", dir, key&0xffff, session),
		cut:   cut,
	}
}

// decide rolls the chaos verdict for the next frame of frameLen bytes.
func (s *netStream) decide(frameLen int) netDecision {
	s.frames++
	o := s.chaos.opts
	if s.cut && o.CutEvery > 0 && s.frames%int64(o.CutEvery) == 0 {
		s.chaos.record(NetCut, s.label, s.frames)
		return netDecision{kind: NetCut, fire: true}
	}
	delay, dup, reorder, trunc := o.thresholds()
	roll := s.rng.IntN(1000)
	// Burn one extra draw unconditionally so delay durations and
	// truncate points stay aligned in the stream no matter which branch
	// fires: the decision sequence is then a pure function of the frame
	// index, not of prior outcomes.
	aux := s.rng.Int64N(1 << 30)
	switch {
	case roll < delay:
		d := time.Duration(aux)%o.maxDelay() + time.Millisecond/20
		s.chaos.record(NetDelay, s.label, s.frames)
		return netDecision{kind: NetDelay, fire: true, delay: d}
	case roll < dup:
		s.chaos.record(NetDup, s.label, s.frames)
		return netDecision{kind: NetDup, fire: true}
	case roll < reorder:
		s.chaos.record(NetReorder, s.label, s.frames)
		return netDecision{kind: NetReorder, fire: true}
	case roll < trunc:
		keep := 4 + int(aux)%maxInt(frameLen/2, 1)
		s.chaos.record(NetTruncate, s.label, s.frames)
		return netDecision{kind: NetTruncate, fire: true, keep: keep}
	}
	return netDecision{}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NetStreamDecisions replays the first n chaos decisions of one stream
// as strings — the determinism contract's test surface: equal (seed,
// opts, key, session, dir) always yield equal sequences.
func NetStreamDecisions(seed uint64, opts NetPlanOptions, key, session uint64, dir string, n int) []string {
	c := NewNetChaos(seed, opts)
	s := c.newStream(key, session, dir, dir == "c2s")
	out := make([]string, n)
	for i := range out {
		d := s.decide(64)
		if d.fire {
			out[i] = d.kind.String()
		} else {
			out[i] = "pass"
		}
	}
	return out
}

// netMaxFrame mirrors the dist wire bound: a corrupt length prefix must
// not make the proxy allocate unboundedly.
const netMaxFrame = 1 << 26

// NetProxy is a frame-aware chaos man-in-the-middle: it listens on a
// loopback port, forwards every accepted connection to the target
// address, and filters both directions through the chaos engine.  A
// connection whose target dial fails is closed immediately — exactly
// what a client of a dead coordinator sees, so reconnect backoff is
// exercised for free while the coordinator is down.
type NetProxy struct {
	ln     net.Listener
	target string
	chaos  *NetChaos

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewNetProxy starts a proxy on 127.0.0.1:0 forwarding to target.
func NewNetProxy(target string, chaos *NetChaos) (*NetProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &NetProxy{ln: ln, target: target, chaos: chaos, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial instead
// of the real target.
func (p *NetProxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting and tears down every proxied connection.
func (p *NetProxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *NetProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *NetProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *NetProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// serve proxies one client connection: dial the target, key the chaos
// streams off the client's first frame, then pump both directions.
func (p *NetProxy) serve(client net.Conn) {
	defer p.wg.Done()
	if !p.track(client) {
		client.Close()
		return
	}
	defer p.untrack(client)
	defer client.Close()

	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return // target down: the client sees a prompt close and backs off
	}
	if !p.track(server) {
		server.Close()
		return
	}
	defer p.untrack(server)
	defer server.Close()

	first, err := readRawFrame(client)
	if err != nil {
		return
	}
	key := fnv1a(first)
	session := p.chaos.session(key)
	c2s := p.chaos.newStream(key, session, "c2s", true)
	s2c := p.chaos.newStream(key, session, "s2c", false)

	done := make(chan struct{}, 2)
	go func() {
		p.pump(server, client, c2s, first)
		server.Close()
		client.Close()
		done <- struct{}{}
	}()
	go func() {
		p.pump(client, server, s2c, nil)
		server.Close()
		client.Close()
		done <- struct{}{}
	}()
	<-done
	<-done
}

// pump forwards frames src→dst under chaos; prime, when non-nil, is a
// frame already read from src (the stream-keying first frame), which is
// subject to chaos like any other.
func (p *NetProxy) pump(dst, src net.Conn, s *netStream, prime []byte) {
	var held []byte // frame awaiting its successor after a reorder
	write := func(b []byte) bool {
		_, err := dst.Write(b)
		return err == nil
	}
	// send forwards one frame and, if a reordered predecessor is held,
	// forwards it *after* — that is the swap.
	send := func(frame []byte) bool {
		if !write(frame) {
			return false
		}
		if held != nil {
			ok := write(held)
			held = nil
			return ok
		}
		return true
	}
	for {
		frame := prime
		prime = nil
		if frame == nil {
			var err error
			frame, err = readRawFrame(src)
			if err != nil {
				if held != nil {
					write(held)
				}
				return
			}
		}
		d := s.decide(len(frame))
		if d.fire {
			switch d.kind {
			case NetCut:
				return
			case NetDelay:
				time.Sleep(d.delay)
				// fall through to a normal forward below
			case NetTruncate:
				keep := d.keep
				if keep >= len(frame) {
					keep = len(frame) - 1
				}
				if keep < 1 {
					keep = 1
				}
				write(frame[:keep])
				return
			case NetDup:
				if !send(frame) || !write(frame) {
					return
				}
				continue
			case NetReorder:
				if held == nil {
					held = frame
					continue
				}
				// Already holding one frame: treat as a plain forward so
				// a run of reorder decisions only ever delays by one slot.
			}
		}
		if !send(frame) {
			return
		}
	}
}

// readRawFrame reads one [4B len][body] frame and returns its full wire
// bytes (prefix included), ready to forward verbatim.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > netMaxFrame {
		return nil, fmt.Errorf("fault: proxied frame length %d out of range", n)
	}
	buf := make([]byte, 4+n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// fnv1a is the same 64-bit FNV-1a the dist wire uses, duplicated here so
// fault stays dependency-free of internal/sim.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
