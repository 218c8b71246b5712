package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"randsync/internal/hierarchy"
	"randsync/internal/object"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	s := <-out
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return s
}

// TestE13Census: the E13 experiment prints EXPERIMENTS.md's census rows —
// register 20,736 / 0, test&set 4,096 / 0, sticky-bit 36,864 / 36 — and
// the lowest-id sticky-bit solver, sticky-bit/2 machine 26863.
func TestE13Census(t *testing.T) {
	out := captureStdout(t, e13)
	rows := map[string][2]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			rows[f[0]] = [2]string{f[1], f[2]}
		}
	}
	for name, want := range map[string][2]string{
		"register":   {"20736", "0"},
		"test&set":   {"4096", "0"},
		"sticky-bit": {"36864", "36"},
	} {
		if got, ok := rows[name]; !ok || got != want {
			t.Errorf("%s row: machines/solvers %v (found %v), want %v", name, got, ok, want)
		}
	}
	m, err := hierarchy.MachineByID(object.StickyBitType{}, 2, 26863)
	if err != nil {
		t.Fatal(err)
	}
	if want := "example solver over one sticky-bit:\n" + hierarchy.Describe(m); !strings.Contains(out, want) {
		t.Errorf("E13 output lacks the example\n%s\ngot:\n%s", want, out)
	}
	if strings.Count(out, "example solver") != 1 {
		t.Errorf("E13 prints %d examples, want 1 (sticky-bit only):\n%s", strings.Count(out, "example solver"), out)
	}
}
