package service

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"randsync/internal/fault"
	"randsync/internal/frame"
)

func TestStoreRoundtrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"verdict":"safe","configs":7}`)
	hash, created, err := st.Put(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Put reported a dedup hit")
	}
	if !ValidArtifactHash(hash) {
		t.Fatalf("hash %q is not a valid address", hash)
	}
	got, err := st.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(doc) {
		t.Fatalf("Get = %q, want %q", got, doc)
	}
}

func TestStoreDedup(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("same document")
	h1, _, err := st.Put(doc)
	if err != nil {
		t.Fatal(err)
	}
	h2, created, err := st.Put(append([]byte(nil), doc...))
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("second Put of identical bytes wrote a new file")
	}
	if h1 != h2 {
		t.Fatalf("hashes differ for identical bytes: %s vs %s", h1, h2)
	}
	if got := st.Stats(); got != (StoreStats{Puts: 1, Dedups: 1}) {
		t.Fatalf("stats = %+v, want 1 put, 1 dedup", got)
	}
}

func TestStoreMisses(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("0123456789abcdef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing artifact: err = %v, want ErrNotFound", err)
	}
	for _, bad := range []string{"", "short", "0123456789ABCDEF", "0123456789abcdeg", "0123456789abcdef0"} {
		if _, err := st.Get(bad); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q): err = %v, want an invalid-hash error", bad, err)
		}
	}
}

// TestStoreTamperDetected: a document whose file was corrupted, or
// renamed to a different address, must never be served.
func TestStoreTamperDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	hash, _, err := st.Put([]byte("the true document"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, hash+".art")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(hash); err == nil {
		t.Fatal("bit-flipped artifact served without error")
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("corruption error does not name the offending file:\n%v", err)
	}

	// A valid frame filed under the wrong address fails the content
	// re-verification even though its checksum is intact.
	wrong := "00000000000000ff"
	if err := os.WriteFile(filepath.Join(dir, wrong+".art"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(wrong); err == nil {
		t.Fatal("misfiled artifact served without error")
	} else if !strings.Contains(err.Error(), wrong+".art") {
		t.Fatalf("tamper error does not name the offending file:\n%v", err)
	}

	if err := os.WriteFile(path, append(raw, 0xde), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(hash); err == nil {
		t.Fatal("trailing-garbage artifact served without error")
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("trailing-garbage error does not name the offending file:\n%v", err)
	}
}

// TestStoreSweepsOrphanedTmp: a crash between staging and rename leaves
// a *.tmp file behind; reopening the store removes it (the content is
// unaddressed and unverifiable) and reports the count, while finished
// artifacts and foreign files survive the sweep.
func TestStoreSweepsOrphanedTmp(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	hash, _, err := st.Put([]byte("finished artifact"))
	if err != nil {
		t.Fatal(err)
	}
	orphans := []string{hash + ".art.tmp", "deadbeefcafef00d.art.tmp"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "NOTES"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Swept(); got != int64(len(orphans)) {
		t.Fatalf("Swept() = %d, want %d", got, len(orphans))
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the sweep (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "NOTES")); err != nil {
		t.Fatalf("foreign file swept: %v", err)
	}
	if got, err := st2.Get(hash); err != nil || string(got) != "finished artifact" {
		t.Fatalf("finished artifact damaged by sweep: %q, %v", got, err)
	}
}

// TestStoreKillSweep: kill the disk at every operation ordinal of a Put
// in turn; whatever survives, a reopened store over a healthy disk ends
// up serving the document after one retry, and never serves garbage.
func TestStoreKillSweep(t *testing.T) {
	probe := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
	dir := t.TempDir()
	st, err := NewStore(filepath.Join(dir, "probe"), probe)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("artifact under fire")
	if _, _, err := st.Put(doc); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 2 {
		t.Fatalf("probe observed only %d ops", total)
	}

	for k := int64(1); k <= total; k++ {
		kdir := filepath.Join(dir, "kill")
		chaos := fault.NewDiskChaos(frame.OS{}, fault.DiskPlan{})
		chaos.KillAtOp(k)
		cst, err := NewStore(kdir, chaos)
		if err == nil {
			_, _, err = cst.Put(doc)
			if err != nil && !fault.IsInjected(err) {
				t.Fatalf("k=%d: non-injected error: %v", k, err)
			}
		}

		// The disk comes back: a fresh store over the same directory
		// must converge — the retry either dedups onto a complete file
		// or rewrites, and the read verifies end to end.
		rst, err := NewStore(kdir, frame.OS{})
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		hash, _, err := rst.Put(doc)
		if err != nil {
			t.Fatalf("k=%d: retry Put: %v", k, err)
		}
		got, err := rst.Get(hash)
		if err != nil {
			t.Fatalf("k=%d: Get after retry: %v", k, err)
		}
		if string(got) != string(doc) {
			t.Fatalf("k=%d: Get = %q, want %q", k, got, doc)
		}
		if err := os.RemoveAll(kdir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStorePutCoalesces: while one Put is parked inside its fsync, more
// Puts of the same document join it instead of writing (the staging
// name is fixed, so a second writer would be a bug, not just waste),
// and a Put and a Get of other documents go straight through.
func TestStorePutCoalesces(t *testing.T) {
	disk := &parkFS{FS: frame.OS{}}
	defer disk.openAll()
	st, err := NewStore(t.TempDir(), disk)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := st.Put([]byte("another document"))
	if err != nil {
		t.Fatal(err)
	}

	doc := []byte("the contended document")
	const followers = 3
	g := disk.arm(ArtifactHash(doc))
	results := make(chan error, 1+followers)
	put := func() {
		_, _, err := st.Put(append([]byte(nil), doc...))
		results <- err
	}
	go put()
	awaitParked(t, g)
	for i := 0; i < followers; i++ {
		go put()
	}
	within(t, "followers joining the parked Put", func() {
		for st.Stats().Coalesced < followers {
			time.Sleep(time.Millisecond)
		}
	})
	within(t, "other documents while a Put is parked", func() {
		if _, err := st.Get(other); err != nil {
			t.Errorf("Get of another hash: %v", err)
		}
		if _, created, err := st.Put([]byte("a third document")); err != nil || !created {
			t.Errorf("Put of another document: created=%v err=%v", created, err)
		}
		if _, err := st.Get(ArtifactHash(doc)); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get of the document still being written: err=%v, want ErrNotFound", err)
		}
	})
	select {
	case err := <-results:
		t.Fatalf("a Put returned with the write's fsync still parked (err=%v)", err)
	default:
	}
	g.open()
	within(t, "the Puts after the release", func() {
		for i := 0; i < 1+followers; i++ {
			if err := <-results; err != nil {
				t.Errorf("Put: %v", err)
			}
		}
	})
	if got := st.Stats(); got != (StoreStats{Puts: 3, Coalesced: followers}) {
		t.Fatalf("stats = %+v, want 3 puts, %d coalesced", got, followers)
	}
	if got, err := st.Get(ArtifactHash(doc)); err != nil || string(got) != string(doc) {
		t.Fatalf("Get after the release = %q, %v", got, err)
	}
}
