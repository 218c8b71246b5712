package fault

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// mkFrame builds one [4B len][body] wire frame around body.
func mkFrame(body []byte) []byte {
	b := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(b, uint32(len(body)))
	copy(b[4:], body)
	return b
}

// TestNetStreamDeterminism: a stream's decision sequence is a pure
// function of (seed, opts, key, session, dir) — the reproducibility
// contract chaos soaks rely on.
func TestNetStreamDeterminism(t *testing.T) {
	opts := DefaultNetPlan()
	a := NetStreamDecisions(42, opts, 7, 0, "c2s", 500)
	b := NetStreamDecisions(42, opts, 7, 0, "c2s", 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d: %q vs %q with equal seeds", i, a[i], b[i])
		}
	}
	fired := 0
	for _, d := range a {
		if d != "pass" {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("default plan fired no events in 500 frames")
	}
	c := NetStreamDecisions(43, opts, 7, 0, "c2s", 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical decision sequences")
	}
	// Sessions diverge too: a reconnect must not replay its predecessor's
	// chaos verbatim.
	d := NetStreamDecisions(42, opts, 7, 1, "c2s", 500)
	same = 0
	for i := range a {
		if a[i] == d[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("sessions 0 and 1 saw identical chaos")
	}
}

// echoServer accepts frame connections and echoes every frame back.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					f, err := readRawFrame(c)
					if err != nil {
						return
					}
					if _, err := c.Write(f); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestNetProxyCleanForwarding: with a zero plan the proxy is a
// transparent frame relay.
func TestNetProxyCleanForwarding(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	chaos := NewNetChaos(1, NetPlanOptions{})
	p, err := NewNetProxy(addr, chaos)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 50; i++ {
		body := []byte{byte(i), byte(i + 1), byte(i + 2)}
		if _, err := conn.Write(mkFrame(body)); err != nil {
			t.Fatal(err)
		}
		got, err := readRawFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4+len(body) || got[4] != byte(i) {
			t.Fatalf("frame %d corrupted: %v", i, got)
		}
	}
	if chaos.Events() != 0 {
		t.Fatalf("zero plan fired %d events", chaos.Events())
	}
}

// TestNetProxyCutEvery: the deterministic cut cadence severs the
// connection at exactly the configured client frame.
func TestNetProxyCutEvery(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	chaos := NewNetChaos(1, NetPlanOptions{CutEvery: 3})
	p, err := NewNetProxy(addr, chaos)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Frames 1 and 2 pass; frame 3 cuts the connection.
	for i := 0; i < 2; i++ {
		if _, err := conn.Write(mkFrame([]byte{1})); err != nil {
			t.Fatal(err)
		}
		if _, err := readRawFrame(conn); err != nil {
			t.Fatalf("frame %d not echoed: %v", i, err)
		}
	}
	conn.Write(mkFrame([]byte{1}))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readRawFrame(conn); err == nil {
		t.Fatal("connection survived the cut cadence")
	}
	if chaos.Count(NetCut) == 0 {
		t.Fatal("cut not counted")
	}
}

// TestNetProxyDupsAndCounts: a duplicate-heavy plan repeats frames and
// the counters say so.
func TestNetProxyDupsAndCounts(t *testing.T) {
	// Counting sink: tallies frames received.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		n := 0
		for {
			if _, err := readRawFrame(conn); err != nil {
				received <- n
				return
			}
			n++
		}
	}()

	chaos := NewNetChaos(9, NetPlanOptions{DupPerMille: 400})
	p, err := NewNetProxy(ln.Addr().String(), chaos)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const sent = 200
	for i := 0; i < sent; i++ {
		if _, err := conn.Write(mkFrame([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	got := <-received
	if got <= sent {
		t.Fatalf("no frames duplicated: sent %d, received %d", sent, got)
	}
	if chaos.Count(NetDup) == 0 || chaos.Events() == 0 {
		t.Fatalf("dups not counted: %d events", chaos.Events())
	}
	if int64(got-sent) != chaos.Count(NetDup) {
		t.Fatalf("received %d of %d but counted %d dups", got, sent, chaos.Count(NetDup))
	}
	if len(chaos.Log()) == 0 {
		t.Fatal("event log empty")
	}
}

// TestNetProxyTargetDown: dialing through the proxy while the target is
// dead yields a prompt close, not a hang — what a worker of a killed
// coordinator must see to enter its backoff loop.
func TestNetProxyTargetDown(t *testing.T) {
	// Grab a port and release it so the target address refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	chaos := NewNetChaos(1, NetPlanOptions{})
	p, err := NewNetProxy(dead, chaos)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(mkFrame([]byte{1}))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		// A reset is as good as EOF here: the client just needs an error.
		var nerr net.Error
		if ok := errorsAs(err, &nerr); ok && nerr.Timeout() {
			t.Fatal("proxy hung instead of closing the client of a dead target")
		}
	}
}

// errorsAs avoids importing errors for one call.
func errorsAs(err error, target *net.Error) bool {
	if ne, ok := err.(net.Error); ok {
		*target = ne
		return true
	}
	return false
}
