package main

import "testing"

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
