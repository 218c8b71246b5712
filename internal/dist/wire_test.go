package dist

// wire_test.go pins down the framing and payload codecs: round-trips,
// hostile inputs (short reads, out-of-range length prefixes, corrupted
// checksums, truncated payloads), and streams containing duplicated
// frames — the shapes the network-chaos proxy manufactures on purpose.

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"randsync/internal/frame"
)

func mustFrame(t *testing.T, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.Write(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x00}, {0xff, 0x00, 0x7f}, bytes.Repeat([]byte{0xaa}, 4096)}
	for _, p := range payloads {
		raw := mustFrame(t, msgDone, p)
		typ, got, err := frame.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("payload len %d: %v", len(p), err)
		}
		if typ != msgDone || !bytes.Equal(got, p) {
			t.Fatalf("payload len %d: round-trip mismatch", len(p))
		}
	}
}

// TestFrameShortReads: a frame truncated at every possible byte
// boundary must error (io.EOF / ErrUnexpectedEOF / checksum), never
// hang or return a partial payload.
func TestFrameShortReads(t *testing.T) {
	raw := mustFrame(t, msgBatch, []byte{1, 2, 3, 4, 5})
	for cut := 0; cut < len(raw); cut++ {
		_, _, err := frame.Read(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at byte %d/%d decoded successfully", cut, len(raw))
		}
	}
}

func TestFrameLengthOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		n    uint32
	}{
		{"zero", 0},
		{"below-minimum", 8}, // must cover type byte + 8B checksum
		{"oversized", frame.MaxFrame + 1},
		{"absurd", 0xffffffff},
	}
	for _, tc := range cases {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], tc.n)
		_, _, err := frame.Read(bytes.NewReader(hdr[:]))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s (len=%d): err = %v, want out-of-range", tc.name, tc.n, err)
		}
	}
}

// TestFrameCorruption: flipping any bit of the type, payload, or
// checksum must fail the FNV check — a truncating or bit-mangling proxy
// cannot slip a torn frame past the decoder.
func TestFrameCorruption(t *testing.T) {
	raw := mustFrame(t, msgPong, []byte{10, 20, 30})
	for i := 4; i < len(raw); i++ { // skip length prefix: covered above
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if _, _, err := frame.Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
}

// TestFrameStreamWithDuplicates: the chaos proxy duplicates whole
// frames in-stream; the reader must hand back each copy independently
// and keep its position — duplication is the *coordinator's* problem
// (idempotent DONE application), never the codec's.
func TestFrameStreamWithDuplicates(t *testing.T) {
	a := mustFrame(t, msgDone, []byte("alpha"))
	b := mustFrame(t, msgPong, nil)
	var stream bytes.Buffer
	stream.Write(a)
	stream.Write(b)
	stream.Write(a) // duplicate arrives late, after an unrelated frame
	stream.Write(b)

	want := []struct {
		typ byte
		p   string
	}{{msgDone, "alpha"}, {msgPong, ""}, {msgDone, "alpha"}, {msgPong, ""}}
	for i, w := range want {
		typ, p, err := frame.Read(&stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != w.typ || string(p) != w.p {
			t.Fatalf("frame %d: got (%d, %q), want (%d, %q)", i, typ, p, w.typ, w.p)
		}
	}
	if _, _, err := frame.Read(&stream); err != io.EOF {
		t.Fatalf("stream tail: err = %v, want io.EOF", err)
	}
}

func TestHelloCodec(t *testing.T) {
	m := helloMsg{Version: wireVersion, Identity: 0xdeadbeef}
	got, err := decodeHello(m.encode())
	if err != nil || got != m {
		t.Fatalf("round-trip: got %+v, %v", got, err)
	}
	if _, err := decodeHello(helloMsg{Version: wireVersion + 1, Identity: 1}.encode()); err == nil {
		t.Error("future wire version accepted")
	}
	if _, err := decodeHello(helloMsg{Version: wireVersion, Identity: 0}.encode()); err == nil {
		t.Error("zero identity accepted")
	}
	if _, err := decodeHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	job := jobMsg{
		Spec:       ProtoSpec{Name: "counter-walk", N: 3, R: 2, Rounds: 5, Seed: 7},
		Inputs:     []int64{0, 1, -1},
		NoSymmetry: true,
		Crash:      []int{2},
		Workers:    4,
		Shards:     16,
	}
	gotJob, err := decodeJob(job.encode())
	if err != nil || !reflect.DeepEqual(gotJob, job) {
		t.Fatalf("job: got %+v, %v", gotJob, err)
	}

	batch := batchMsg{ID: 42, Items: []item{
		{gid: 7, sched: []byte{1, 2}},
		{gid: 9, sched: nil},
	}}
	gotBatch, err := decodeBatch(batch.encode())
	if err != nil || gotBatch.ID != batch.ID || len(gotBatch.Items) != 2 ||
		gotBatch.Items[0].gid != 7 || !bytes.Equal(gotBatch.Items[0].sched, []byte{1, 2}) ||
		gotBatch.Items[1].gid != 9 || len(gotBatch.Items[1].sched) != 0 {
		t.Fatalf("batch: got %+v, %v", gotBatch, err)
	}

	done := doneMsg{ID: 42, Generated: 99, Violated: true,
		Decisions: []int64{1, 0},
		Emits:     []emit{{from: 7, key: []byte{0xab}, sched: []byte{1}}}}
	gotDone, err := decodeDone(done.encode())
	if err != nil || gotDone.ID != 42 || gotDone.Generated != 99 || !gotDone.Violated ||
		!reflect.DeepEqual(gotDone.Decisions, done.Decisions) || len(gotDone.Emits) != 1 ||
		gotDone.Emits[0].from != 7 || !bytes.Equal(gotDone.Emits[0].key, []byte{0xab}) {
		t.Fatalf("done: got %+v, %v", gotDone, err)
	}
}

// TestPayloadTruncation: every proper prefix of a valid payload must
// decode to an error (sticky-error frame.Reader), and full payloads with
// trailing garbage must be rejected too.
func TestPayloadTruncation(t *testing.T) {
	job := jobMsg{Spec: ProtoSpec{Name: "cas", N: 2}, Inputs: []int64{0, 1}, Workers: 1, Shards: 4}
	batch := batchMsg{ID: 1, Items: []item{{gid: 3, sched: []byte{9, 9}}}}
	done := doneMsg{ID: 1, Generated: 2, Emits: []emit{{from: 3, key: []byte{1}, sched: []byte{2}}}}
	cases := []struct {
		name   string
		p      []byte
		decode func([]byte) error
	}{
		{"job", job.encode(), func(b []byte) error { _, err := decodeJob(b); return err }},
		{"batch", batch.encode(), func(b []byte) error { _, err := decodeBatch(b); return err }},
		{"done", done.encode(), func(b []byte) error { _, err := decodeDone(b); return err }},
	}
	for _, tc := range cases {
		for cut := 0; cut < len(tc.p); cut++ {
			if err := tc.decode(tc.p[:cut]); err == nil {
				t.Errorf("%s truncated at %d/%d decoded successfully", tc.name, cut, len(tc.p))
			}
		}
		trailing := append(append([]byte(nil), tc.p...), 0x00)
		if err := tc.decode(trailing); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s with trailing byte: err = %v, want trailing-bytes", tc.name, err)
		}
	}
}

// FuzzFrame: any (type, payload) pair must survive an encode/decode
// round-trip bit-exactly.
func FuzzFrame(f *testing.F) {
	f.Add(byte(msgHello), []byte{})
	f.Add(byte(msgDone), []byte{1, 2, 3})
	f.Add(byte(0xff), bytes.Repeat([]byte{0x55}, 300))
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if len(payload) > 1<<16 {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := frame.Write(&buf, typ, payload); err != nil {
			t.Fatal(err)
		}
		gt, gp, err := frame.Read(&buf)
		if err != nil {
			t.Fatalf("round-trip: %v", err)
		}
		if gt != typ || !bytes.Equal(gp, payload) {
			t.Fatal("round-trip mismatch")
		}
	})
}

// FuzzFrameDecode: arbitrary bytes fed to the frame reader must never
// panic, and anything it accepts must be a frame writeFrame could have
// produced (re-encoding reproduces the consumed prefix).
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustFrameSeed(msgDone, []byte("seed")))
	f.Add([]byte{0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		typ, p, err := frame.Read(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := frame.Write(&buf, typ, p); err != nil {
			t.Fatal(err)
		}
		consumed := len(raw) - r.Len()
		if !bytes.Equal(buf.Bytes(), raw[:consumed]) {
			t.Fatal("accepted frame does not re-encode to its own bytes")
		}
	})
}

// FuzzPayloadDecoders: the message decoders must reject or accept
// arbitrary payload bytes without ever panicking.
func FuzzPayloadDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add(jobMsg{Spec: ProtoSpec{Name: "cas", N: 2}, Inputs: []int64{0, 1}}.encode())
	f.Add(doneMsg{ID: 1, Emits: []emit{{from: 1, key: []byte{2}}}}.encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, _ = decodeHello(raw)
		_, _ = decodeJob(raw)
		_, _ = decodeBatch(raw)
		_, _ = decodeDone(raw)
	})
}

func mustFrameSeed(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	_ = frame.Write(&buf, typ, payload)
	return buf.Bytes()
}
