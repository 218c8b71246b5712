package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"randsync/internal/valency"
)

// TestRunRejectsBadSpecs: an unknown name or an out-of-range parameter
// is an error before anything is built — never a panic, and never a
// vacuous certificate over zero processes.
func TestRunRejectsBadSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "no-such-protocol"},
		{"-n", "0"},
		{"-n", "-1"},
		{"-protocol", "flood-swap", "-r", "-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("modelcheck %v: no error", args)
		}
	}
}

// TestSpecDefaultsShared: modelcheck declares its spec flags through
// zoo.Flags, as distcheck does, so a spec that names no seed checks
// scan-machine seed 1 in both.  Over two objects the first violation is
// the 11-step trace distcheck's TestSpecDefaultsShared pins too (seed 0
// would give 14 steps).
func TestSpecDefaultsShared(t *testing.T) {
	j := runJSON(t, "-protocol", "scan-machine", "-r", "2", "-n", "2", "-workers", "1", "-json")
	if j.Violation == nil || j.Violation.Steps != 11 || j.Repro["seed"] != float64(1) {
		t.Fatalf("violation %+v, repro seed %v; want an 11-step trace under seed 1", j.Violation, j.Repro["seed"])
	}
}

// TestCPUProfile: -cpuprofile writes the run's CPU profile in the
// format pprof reads, a gzip stream, around a spill-tier run.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	j := runJSON(t, "-protocol", "counter-walk", "-n", "2", "-workers", "2", "-mem-budget", "4096",
		"-spill-dir", filepath.Join(dir, "spill"), "-cpuprofile", prof, "-json")
	if j.Verdict != "safe" {
		t.Fatalf("verdict %q, want safe", j.Verdict)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("profile of %d bytes is not gzip: %v", len(b), err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("profile holds %d bytes of gzip data, err %v", n, err)
	}
}

// runJSON runs the command with args and decodes the verdict document it
// prints on stdout.
func runJSON(t *testing.T, args ...string) valency.JSONReport {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	b := <-out
	if runErr != nil {
		t.Fatalf("run(%q): %v", args, runErr)
	}
	var j valency.JSONReport
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatalf("run(%q) printed no verdict document: %v\n%s", args, err, b)
	}
	return j
}
