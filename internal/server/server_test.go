package server

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vpi"
)

func hereLine() int {
	var pcs [1]uintptr
	runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:1])
	f, _ := frames.Next()
	return f.Line
}

// startServerFull builds a counter design and serves it, returning
// the listen address, the simulator, the breakpointable line, and the
// server itself. Additional clients may dial the address to form a
// multi-session debug setup.
func startServerFull(t *testing.T) (string, *sim.Simulator, int, *Server) {
	t.Helper()
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	var incLine int
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
		incLine = hereLine() - 1
	})
	out.Set(count)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(nl)
	rt, err := core.New(vpi.NewSimBackend(s), table)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(rt, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, s, incLine, srv
}

// startServerAddr is startServerFull without the server handle.
func startServerAddr(t *testing.T) (string, *sim.Simulator, int) {
	t.Helper()
	addr, s, incLine, _ := startServerFull(t)
	return addr, s, incLine
}

// dialClient attaches one debugger session and consumes its welcome.
func dialClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ev, err := cl.WaitEvent("welcome", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Top != "Counter" || ev.SessionID == 0 || ev.Role == "" {
		t.Fatalf("welcome = %+v", ev)
	}
	return cl
}

// startServer builds a counter design, serves it, and returns an
// attached client plus the simulator and breakpointable line.
func startServer(t *testing.T) (*client.Client, *sim.Simulator, int) {
	t.Helper()
	addr, s, incLine := startServerAddr(t)
	return dialClient(t, addr), s, incLine
}

func TestEndToEndBreakpointSession(t *testing.T) {
	cl, s, incLine := startServer(t)

	ids, err := cl.AddBreakpoint("server_test.go", incLine, "")
	if err != nil {
		t.Fatalf("add breakpoint: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	// Run the simulation on its own goroutine — it will block at the
	// breakpoint until we send a command.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Reset("Counter.reset", 1)
		s.Poke("Counter.en", 1)
		s.Run(3)
	}()

	stop, err := cl.WaitStop(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stop.File != "server_test.go" || stop.Line != incLine {
		t.Fatalf("stop at %s:%d", stop.File, stop.Line)
	}
	if len(stop.Threads) != 1 || stop.Threads[0].Instance != "Counter" {
		t.Fatalf("threads = %+v", stop.Threads)
	}

	// While paused, inspect values through the protocol.
	v, err := cl.GetValue("Counter.count")
	if err != nil {
		t.Fatalf("get-value: %v", err)
	}
	if v.Value != 0 {
		t.Fatalf("count at first stop = %d", v.Value)
	}
	ev, err := cl.Evaluate("Counter", "count + 10")
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if ev.Value != 10 {
		t.Fatalf("evaluate = %d", ev.Value)
	}

	// Resume through the remaining stops.
	for i := 0; i < 3; i++ {
		if err := cl.Command("continue"); err != nil {
			t.Fatalf("continue %d: %v", i, err)
		}
		if i < 2 {
			if _, err := cl.WaitStop(5 * time.Second); err != nil {
				t.Fatalf("stop %d: %v", i+1, err)
			}
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation did not finish")
	}
}

func TestListRemoveAndInfo(t *testing.T) {
	cl, _, incLine := startServer(t)
	if _, err := cl.AddBreakpoint("server_test.go", incLine, "count == 2"); err != nil {
		t.Fatal(err)
	}
	infos, err := cl.ListBreakpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Line != incLine {
		t.Fatalf("list = %+v", infos)
	}
	// Info topics.
	filesRaw, err := cl.Info("files", "")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	json.Unmarshal(filesRaw, &files)
	if len(files) != 1 || files[0] != "server_test.go" {
		t.Fatalf("files = %v", files)
	}
	instRaw, _ := cl.Info("instances", "")
	var insts []string
	json.Unmarshal(instRaw, &insts)
	if len(insts) != 1 || insts[0] != "Counter" {
		t.Fatalf("instances = %v", insts)
	}
	statusRaw, _ := cl.Info("status", "")
	var status map[string]any
	json.Unmarshal(statusRaw, &status)
	if status["mode"] != "optimized" {
		t.Fatalf("status = %v", status)
	}
	// Remove.
	n, err := cl.RemoveBreakpoint("server_test.go", incLine)
	if err != nil || n != 1 {
		t.Fatalf("remove = %d, %v", n, err)
	}
	if err := cl.ClearBreakpoints(); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cl, _, _ := startServer(t)
	if _, err := cl.AddBreakpoint("ghost.go", 1, ""); err == nil {
		t.Fatal("bogus breakpoint accepted")
	}
	if err := cl.Command("continue"); err == nil {
		t.Fatal("continue while running accepted")
	}
	if err := cl.Command("warp"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := cl.GetValue("no.such.signal"); err == nil {
		t.Fatal("unknown signal accepted")
	}
	if _, err := cl.Info("nonsense", ""); err == nil {
		t.Fatal("unknown topic accepted")
	}
}

func TestSetValueThroughProtocol(t *testing.T) {
	cl, s, _ := startServer(t)
	if err := cl.SetValue("Counter.count", 42); err != nil {
		t.Fatalf("set-value: %v", err)
	}
	v, err := s.Peek("Counter.count")
	if err != nil || v.Bits != 42 {
		t.Fatalf("count = %d, %v", v.Bits, err)
	}
	// Relative path form.
	if err := cl.SetValue("Counter.en", 1); err != nil {
		t.Fatal(err)
	}
}

func TestStepCommandOverProtocol(t *testing.T) {
	cl, s, incLine := startServer(t)
	if _, err := cl.AddBreakpoint("server_test.go", incLine, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(2)
	}()
	if _, err := cl.WaitStop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Command("step"); err != nil {
		t.Fatal(err)
	}
	// Stepping stops at the next statement (the out connect has no
	// valid locator, so the next stop is next cycle's increment).
	stop, err := cl.WaitStop(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !stop.StepStop && stop.Line != incLine {
		t.Fatalf("step stop = %+v", stop)
	}
	cl.Command("detach")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation stuck")
	}
}

// TestReverseContinueRefusedOnLiveSim: a live simulation cannot seek,
// so reverse-continue is refused with an error response, and the stop
// it was sent from stays parked for the next command.
func TestReverseContinueRefusedOnLiveSim(t *testing.T) {
	cl, s, incLine := startServer(t)
	if _, err := cl.AddBreakpoint("server_test.go", incLine, "count == 1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(5)
	}()
	stop, err := cl.WaitStop(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Command("reverse-continue"); err == nil {
		t.Fatal("reverse-continue accepted on a live simulation")
	}
	raw, err := cl.Info("status", "")
	if err != nil {
		t.Fatal(err)
	}
	var status struct{ Time uint64 }
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatal(err)
	}
	if status.Time != stop.Time {
		t.Fatalf("simulation moved to t=%d after the refusal, stop was at t=%d", status.Time, stop.Time)
	}
	if err := cl.Command("continue"); err != nil {
		t.Fatalf("continue after the refusal: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation stuck after the refused reverse-continue")
	}
}

func TestWatchOverProtocol(t *testing.T) {
	cl, s, _ := startServer(t)
	id, err := cl.AddWatch("Counter", "count")
	if err != nil {
		t.Fatalf("AddWatch: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(3)
	}()
	stop, err := cl.WaitStop(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(stop.Watch) == 0 {
		t.Fatalf("stop without watch hits: %+v", stop)
	}
	if stop.Watch[0].New != stop.Watch[0].Old+1 {
		t.Fatalf("watch hit = %+v", stop.Watch[0])
	}
	if err := cl.Command("continue"); err != nil {
		t.Fatal(err)
	}
	// Drain remaining stops so the simulation can finish.
	for {
		st, err := cl.WaitStop(2 * time.Second)
		if err != nil {
			break
		}
		_ = st
		if err := cl.Command("continue"); err != nil {
			break
		}
	}
	<-done
	if err := cl.RemoveWatch(id); err != nil {
		t.Fatalf("RemoveWatch: %v", err)
	}
	if err := cl.RemoveWatch(id); err == nil {
		t.Fatal("double remove accepted")
	}
}
