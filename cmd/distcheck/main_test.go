package main

import (
	"strings"
	"testing"
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
