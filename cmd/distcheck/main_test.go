package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"randsync/internal/valency"
)

// TestChaosSeedNeedsLoopback: the chaos proxy exists only in loopback
// mode, so -chaos-net-seed anywhere else is refused up front instead of
// being silently ignored (here: before a worker dials anything).
func TestChaosSeedNeedsLoopback(t *testing.T) {
	for _, args := range [][]string{
		{"-join", "127.0.0.1:1", "-retry", "1", "-chaos-net-seed", "7"},
		{"-submit", "http://127.0.0.1:1", "-chaos-net-seed", "7"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-loopback") {
			t.Errorf("run(%q) = %v, want an error naming -loopback", args, err)
		}
	}
}

// TestSpecDefaultsShared: distcheck declares its spec flags through
// zoo.Flags, as modelcheck does, so a spec that names no seed checks
// scan-machine seed 1 in both.  Over two objects the first violation is
// the 11-step trace modelcheck's TestSpecDefaultsShared pins too.
func TestSpecDefaultsShared(t *testing.T) {
	j := runJSON(t, "-loopback", "1", "-protocol", "scan-machine", "-r", "2", "-n", "2", "-all", "-json")
	if j.Violation == nil || j.Violation.Steps != 11 {
		t.Fatalf("violation %+v; want an 11-step trace under seed 1", j.Violation)
	}
}

// TestInterruptedMessage: an interrupted coordinator names its
// checkpoint only when the file exists; one interrupted before its first
// snapshot says a rerun starts over, not that -resume will continue.
func TestInterruptedMessage(t *testing.T) {
	dir := t.TempDir()
	written := filepath.Join(dir, "written.ckpt")
	if err := os.WriteFile(written, []byte("snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.ckpt")
	for _, tc := range []struct {
		path string
		want []string
		not  string
	}{
		{written, []string{"checkpoint written to " + written, "-resume"}, "starts over"},
		{missing, []string{"before the first checkpoint", missing, "a rerun starts over"}, "-resume"},
		{"", []string{"no -checkpoint set"}, "-resume"},
	} {
		msg := interruptedMessage(tc.path)
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("interruptedMessage(%q) = %q, want it to contain %q", tc.path, msg, w)
			}
		}
		if strings.Contains(msg, tc.not) {
			t.Errorf("interruptedMessage(%q) = %q, must not contain %q", tc.path, msg, tc.not)
		}
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
