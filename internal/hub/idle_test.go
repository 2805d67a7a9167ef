//go:build unix

package hub

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
)

// processCPU is the CPU time the test process has used so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestHubIdleFarmCPU: a farm nobody is debugging costs no CPU. Half
// of its runtimes were debugged — a controller armed a breakpoint,
// reached a stop and left with the breakpoint still armed — and none
// has a session now, so every drive loop parks.
func TestHubIdleFarmCPU(t *testing.T) {
	h, addr := startHub(t)
	vcdPath, symtabPath := replayFixture(t, t.TempDir())
	var ids []string
	for i := 0; i < 8; i++ {
		spec := proto.RuntimeSpec{Name: fmt.Sprintf("s%d", i), Kind: "sim", Design: "counter"}
		if i%2 == 1 {
			spec = proto.RuntimeSpec{Name: fmt.Sprintf("r%d", i), Kind: "replay", VCD: vcdPath, Symtab: symtabPath}
		}
		if _, err := h.Launch(spec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, spec.Name)
	}
	for _, id := range ids[:4] {
		ctrl, err := client.DialOpts(addr, client.Options{Runtime: id})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.WaitEvent("welcome", 10*time.Second); err != nil {
			t.Fatal(err)
		}
		file, line := discoverLine(t, ctrl)
		if _, err := ctrl.AddBreakpoint(file, line, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.WaitStop(10 * time.Second); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		ctrl.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids[:4] {
		for h.Server(id).SessionCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s still has a session", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(100 * time.Millisecond) // let the dropped sessions' writers finish

	before := processCPU(t)
	time.Sleep(time.Second)
	used := processCPU(t) - before
	t.Logf("idle farm CPU over 1 s: %v", used)
	if used >= 10*time.Millisecond {
		t.Fatalf("an idle farm of %d runtimes used %v of CPU in 1 s, want < 10ms", len(ids), used)
	}
}

// TestHubIdleRuntimeServesQueries: a parked replay runtime answers
// queries at once. Its drive loop serves the query queue while parked,
// so neither a read nor an arming request waits for an edge or for the
// server's idle grace.
func TestHubIdleRuntimeServesQueries(t *testing.T) {
	h, addr := startHub(t)
	vcdPath, symtabPath := replayFixture(t, t.TempDir())
	if _, err := h.Launch(proto.RuntimeSpec{Name: "r0", Kind: "replay", VCD: vcdPath, Symtab: symtabPath}); err != nil {
		t.Fatal(err)
	}
	cl, err := client.DialOpts(addr, client.Options{Runtime: "r0"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.WaitEvent("welcome", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	file, line := discoverLine(t, cl)
	for _, q := range []struct {
		name string
		run  func() error
	}{
		{"get-value", func() error { _, err := cl.GetValue("Counter.count"); return err }},
		{"breakpoint add", func() error { _, err := cl.AddBreakpoint(file, line, ""); return err }},
	} {
		start := time.Now()
		if err := q.run(); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if el := time.Since(start); el >= 50*time.Millisecond {
			t.Fatalf("%s on an idle runtime took %v, want < 50ms", q.name, el)
		}
	}
	if _, err := cl.WaitStop(10 * time.Second); err != nil {
		t.Fatalf("armed idle runtime did not stop: %v", err)
	}
}
