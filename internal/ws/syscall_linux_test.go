package ws

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// writeSyscalls reads the process's write-syscall counter (syscw in
// /proc/self/io), skipping the test where the kernel does not expose it.
func writeSyscalls(t *testing.T) uint64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no write-syscall counter: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw:"); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				t.Fatalf("syscw %q: %v", v, err)
			}
			return n
		}
	}
	t.Skip("no syscw line in /proc/self/io")
	return 0
}

// TestOneWriteSyscallPerCall pins the writer's contract on a real
// loopback pair: one write call, header and payload together, costs
// one write syscall, and so does a whole WriteFrames batch. No write
// timeout is set, so no deadline timer can wake the network poller (a
// write of its own) inside the measured window; a write by anything
// else in the process can only add to a count, so each call gets a
// few attempts to show exactly one.
func TestOneWriteSyscallPerCall(t *testing.T) {
	srv, cl := startPair(t)
	for _, c := range []*Conn{srv, cl} {
		go func() {
			for {
				if _, _, err := c.ReadMessage(); err != nil {
					return
				}
			}
		}()
	}
	payload := []byte(`{"type":"stop","seq":7}`)
	batch := make([]Frame, 5)
	for i := range batch {
		batch[i] = Frame{Op: TextMessage, Payload: payload}
		if i%2 == 1 {
			batch[i].Op = BinaryMessage
		}
	}
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"server WriteText", func() error { return srv.WriteText(payload) }},
		{"server WriteBinary", func() error { return srv.WriteBinary(payload) }},
		{"client WriteText", func() error { return cl.WriteText(payload) }},
		{"server WriteFrames (5 frames)", func() error { return srv.WriteFrames(batch) }},
	} {
		var seen []uint64
		for attempt := 0; attempt < 5; attempt++ {
			before := writeSyscalls(t)
			if err := tc.write(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			n := writeSyscalls(t) - before
			seen = append(seen, n)
			if n == 1 {
				break
			}
		}
		if seen[len(seen)-1] != 1 {
			t.Errorf("%s: write syscalls per call %v, want 1", tc.name, seen)
		}
	}
}
