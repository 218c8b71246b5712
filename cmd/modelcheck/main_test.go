package main

import "testing"

// TestProtocolNamesResolve: every name the -protocol help lists resolves,
// so the help cannot advertise a protocol lookup rejects.
func TestProtocolNamesResolve(t *testing.T) {
	for _, name := range protocolNames {
		if _, err := lookup(name, 2, 2, 2); err != nil {
			t.Errorf("-protocol %s: %v", name, err)
		}
	}
	if _, err := lookup("no-such-protocol", 2, 2, 2); err == nil {
		t.Error("unknown protocol accepted")
	}
}
