package dap

import (
	"bytes"
	"encoding/json"
	"net"
	goruntime "runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/replay"
	"repro/internal/rtl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// This file is the DAP conformance harness: scripted protocol sessions
// over an in-memory pipe against a real hgdb server, on both backends.
// The sim scenario drives initialize → attach → setBreakpoints (with
// symtab-verified and rejected lines) → configurationDone →
// stopped(breakpoint) → threads → stackTrace → scopes → variables
// (structured child expansion) → evaluate → next → continue →
// disconnect; the replay scenario adds stepBack and reverseContinue
// behind supportsStepBack, and reverseContinue's entry and pause
// landings have cases of their own. Stop times and frame contents are compared
// against the same script run through internal/client directly.

func hereLine() int {
	var pcs [1]uintptr
	goruntime.Callers(2, pcs[:])
	f, _ := goruntime.CallersFrames(pcs[:1]).Next()
	return f.Line
}

// buildDualCoreBundle is the harness design: two instances of one Core
// (so a stop presents two Fig-4 threads) whose output port is a bundle
// (so DAP variable expansion exercises §4.2 structure reconstruction).
func buildDualCoreBundle(t *testing.T) (*sim.Simulator, *symtab.Table, int) {
	t.Helper()
	c := generator.NewCircuit("Top")
	coreMod := c.NewModule("Core")
	d := coreMod.Input("d", ir.UIntType(8))
	io := coreMod.Output("io", ir.Bundle{Fields: []ir.Field{
		{Name: "bits", Type: ir.UIntType(8)},
		{Name: "valid", Type: ir.UIntType(1)},
	}})
	acc := coreMod.RegInit("acc", ir.UIntType(8), coreMod.Lit(0, 8))
	var accLine int
	coreMod.When(d.Bit(0), func() {
		acc.Set(acc.AddMod(d))
		accLine = hereLine() - 1
	})
	io.Field("bits").Set(acc)
	io.Field("valid").Set(d.Bit(0))

	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	u0 := top.Instance("u0", coreMod)
	u1 := top.Instance("u1", coreMod)
	u0.IO("d").Set(x)
	u1.IO("d").Set(x) // same input -> both cores hit together
	y.Set(u0.IO("io").Field("bits").AddMod(u1.IO("io").Field("bits")))

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
	return sim.New(nl), table, accLine
}

// startSimServer serves the dual-core design from a live simulator.
func startSimServer(t *testing.T) (string, *sim.Simulator, int) {
	t.Helper()
	s, table, accLine := buildDualCoreBundle(t)
	addr, _ := serveBackend(t, vpi.NewSimBackend(s), table)
	return addr, s, accLine
}

// serveBackend attaches a runtime to the backend and serves it,
// returning the listen address and the runtime (for its stop counts).
func serveBackend(t *testing.T, be vpi.Interface, table *symtab.Table) (string, *core.Runtime) {
	t.Helper()
	rt, err := core.New(be, table)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(rt, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, rt
}

// recordTrace runs the dual-core design forward and returns its VCD
// bytes plus the (re-loadable) symbol table and breakpoint line.
func recordTrace(t *testing.T, cycles int) ([]byte, *symtab.Table, int) {
	t.Helper()
	s, table, accLine := buildDualCoreBundle(t)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(s, &buf)
	s.Reset("Top.reset", 1)
	s.Poke("Top.x", 3) // odd -> both cores accumulate every cycle
	s.Run(cycles)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), table, accLine
}

// startReplayServer serves a recorded trace through the checkpointed
// block-store engine and returns a driver that replays it forward.
func startReplayServer(t *testing.T, trace []byte, table *symtab.Table) (string, *replay.Engine, *core.Runtime) {
	t.Helper()
	eng := replayEngine(t, trace)
	addr, rt := serveBackend(t, eng, table)
	return addr, eng, rt
}

// replayEngine indexes a recorded trace into small blocks with frequent
// checkpoints, so reverse execution crosses both.
func replayEngine(t *testing.T, trace []byte) *replay.Engine {
	t.Helper()
	store, err := vcd.ParseStore(bytes.NewReader(trace), vcd.StoreOptions{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return replay.NewStore(store, replay.WithCheckpointInterval(4))
}

// dapClient is the scripted DAP peer: it talks to an in-process
// adapter over a net.Pipe, matching responses to requests and queueing
// interleaved events.
type dapClient struct {
	t      *testing.T
	pipe   net.Conn
	conn   *Conn
	events []*Message
}

// newDAPSession wires an adapter (attached to the hgdb server at addr)
// to an in-memory pipe and returns the scripted client side.
func newDAPSession(t *testing.T, addr string) *dapClient {
	t.Helper()
	clientEnd, adapterEnd := net.Pipe()
	ad, err := New(adapterEnd, Options{Addr: addr})
	if err != nil {
		t.Fatalf("adapter attach: %v", err)
	}
	go ad.Serve()
	t.Cleanup(func() { clientEnd.Close(); adapterEnd.Close() })
	return &dapClient{t: t, pipe: clientEnd, conn: NewConn(clientEnd)}
}

func (d *dapClient) read() *Message {
	d.t.Helper()
	d.pipe.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := d.conn.ReadMessage()
	if err != nil {
		d.t.Fatalf("dap read: %v", err)
	}
	return m
}

// request sends a request and returns its (successful) response,
// queueing any events that arrive first.
func (d *dapClient) request(command string, args any) *Message {
	d.t.Helper()
	seq, err := d.conn.SendRequest(command, args)
	if err != nil {
		d.t.Fatalf("send %s: %v", command, err)
	}
	for {
		m := d.read()
		if m.Type == "event" {
			d.events = append(d.events, m)
			continue
		}
		if m.Type != "response" || m.RequestSeq != seq {
			d.t.Fatalf("unexpected message answering %s: %+v", command, m)
		}
		if !m.Success {
			d.t.Fatalf("%s failed: %s", command, m.Msg)
		}
		return m
	}
}

// requestFail sends a request that must be rejected.
func (d *dapClient) requestFail(command string, args any) *Message {
	d.t.Helper()
	seq, err := d.conn.SendRequest(command, args)
	if err != nil {
		d.t.Fatalf("send %s: %v", command, err)
	}
	for {
		m := d.read()
		if m.Type == "event" {
			d.events = append(d.events, m)
			continue
		}
		if m.Type != "response" || m.RequestSeq != seq {
			d.t.Fatalf("unexpected message answering %s: %+v", command, m)
		}
		if m.Success {
			d.t.Fatalf("%s unexpectedly succeeded", command)
		}
		return m
	}
}

// event returns the next event of the given name, consuming queued
// events first.
func (d *dapClient) event(name string) *Message {
	d.t.Helper()
	for i, m := range d.events {
		if m.Event == name {
			d.events = append(d.events[:i], d.events[i+1:]...)
			return m
		}
	}
	for {
		m := d.read()
		if m.Type != "event" {
			d.t.Fatalf("wanted %s event, got %+v", name, m)
		}
		if m.Event == name {
			return m
		}
		d.events = append(d.events, m)
	}
}

// stopped waits for a stopped event and decodes it.
func (d *dapClient) stopped() StoppedEvent {
	d.t.Helper()
	m := d.event("stopped")
	var ev StoppedEvent
	if err := json.Unmarshal(m.Body, &ev); err != nil {
		d.t.Fatalf("stopped body: %v", err)
	}
	return ev
}

func decodeBody[T any](t *testing.T, m *Message) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(m.Body, &v); err != nil {
		t.Fatalf("body: %v", err)
	}
	return v
}

// threadIDByName resolves a DAP thread id from the threads request.
func (d *dapClient) threadIDByName(name string) int {
	d.t.Helper()
	resp := decodeBody[ThreadsResponse](d.t, d.request("threads", nil))
	for _, th := range resp.Threads {
		if th.Name == name {
			return th.ID
		}
	}
	d.t.Fatalf("no thread %q in %+v", name, resp.Threads)
	return 0
}

// varsByName fetches one expansion level into a name-keyed map.
func (d *dapClient) varsByName(ref int) map[string]Variable {
	d.t.Helper()
	resp := decodeBody[VariablesResponse](d.t, d.request("variables", map[string]any{"variablesReference": ref}))
	out := map[string]Variable{}
	for _, v := range resp.Variables {
		out[v.Name] = v
	}
	return out
}

// scopeRefs fetches the Locals and Generator scope references of a
// frame.
func (d *dapClient) scopeRefs(frameID int) (locals, gen int) {
	d.t.Helper()
	resp := decodeBody[ScopesResponse](d.t, d.request("scopes", map[string]any{"frameId": frameID}))
	for _, sc := range resp.Scopes {
		switch sc.Name {
		case "Locals":
			locals = sc.VariablesReference
		case "Generator":
			gen = sc.VariablesReference
		}
	}
	return locals, gen
}

// numValue parses the adapter's decimal value rendering.
func numValue(t *testing.T, v Variable) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(v.Value, 10, 64)
	if err != nil {
		t.Fatalf("value %q: %v", v.Value, err)
	}
	return n
}

// referenceStops runs the breakpoint script through internal/client
// directly: arm line, record (time, u0 acc) for the first `record`
// stops, and keep continuing through any later stops until the driver
// finishes.
func referenceStops(t *testing.T, addr, file string, line int, drive func(), record int) (times, accs []uint64) {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.WaitEvent("welcome", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddBreakpoint(file, line, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); drive() }()
	for {
		select {
		case <-done:
			if len(times) < record {
				t.Fatalf("reference run ended after %d stops, wanted %d", len(times), record)
			}
			return times, accs
		default:
		}
		stop, err := cl.WaitStop(time.Second)
		if err != nil {
			continue // poll the driver again
		}
		if len(times) < record {
			acc := uint64(0)
			for _, v := range stop.Threads[0].Locals {
				if v.Name == "acc" {
					acc = v.Value
				}
			}
			times = append(times, stop.Time)
			accs = append(accs, acc)
		}
		if err := cl.Command("continue"); err != nil {
			t.Fatalf("reference continue: %v", err)
		}
	}
}

const harnessFile = "conformance_test.go"

// TestDAPConformanceSim is the acceptance scenario on the live
// simulator backend.
func TestDAPConformanceSim(t *testing.T) {
	addr, s, accLine := startSimServer(t)
	d := newDAPSession(t, addr)

	// --- initialize: capabilities; no reverse execution on a live sim.
	caps := decodeBody[Capabilities](t, d.request("initialize",
		InitializeArguments{AdapterID: "hgdb", ClientID: "conformance"}))
	if !caps.SupportsConfigurationDoneRequest || !caps.SupportsConditionalBreakpoints {
		t.Fatalf("capabilities = %+v", caps)
	}
	if caps.SupportsStepBack {
		t.Fatal("live simulation advertised supportsStepBack")
	}

	// --- attach, then the initialized event.
	d.request("attach", AttachArguments{})
	d.event("initialized")

	// Reverse requests must be refused on this backend.
	d.requestFail("stepBack", ThreadedArguments{ThreadID: 1})

	// --- setBreakpoints: replace semantics with symtab verification.
	sb := decodeBody[SetBreakpointsResponse](t, d.request("setBreakpoints", SetBreakpointsArguments{
		Source: Source{Path: "/work/src/" + harnessFile}, // basename matching
		Breakpoints: []SourceBreakpoint{
			{Line: accLine},
			{Line: accLine + 500}, // not a statement: must be rejected
		},
	}))
	if len(sb.Breakpoints) != 2 {
		t.Fatalf("breakpoints = %+v", sb.Breakpoints)
	}
	if !sb.Breakpoints[0].Verified || sb.Breakpoints[0].ID == 0 {
		t.Fatalf("line %d not verified: %+v", accLine, sb.Breakpoints[0])
	}
	if sb.Breakpoints[1].Verified || sb.Breakpoints[1].Message == "" {
		t.Fatalf("bogus line accepted: %+v", sb.Breakpoints[1])
	}
	d.request("configurationDone", nil)

	// --- drive the simulation; both cores hit together (Fig. 4 B).
	simDone := make(chan struct{})
	go func() {
		defer close(simDone)
		s.Reset("Top.reset", 1)
		s.Poke("Top.x", 3)
		s.Run(3)
	}()

	stop := d.stopped()
	if stop.Reason != "breakpoint" || !stop.AllThreadsStopped {
		t.Fatalf("first stop = %+v", stop)
	}
	if len(stop.HitBreakpointIDs) != 2 {
		t.Fatalf("hit ids = %v, want one per core instance", stop.HitBreakpointIDs)
	}
	firstTime := stop.Time

	// --- threads: every instance is a thread; both cores are stopped.
	u0 := d.threadIDByName("Top.u0")
	u1 := d.threadIDByName("Top.u1")
	topID := d.threadIDByName("Top")

	// --- stackTrace: one generator-statement frame per hit instance.
	st := decodeBody[StackTraceResponse](t, d.request("stackTrace", ThreadedArguments{ThreadID: u0}))
	if st.TotalFrames != 1 || len(st.StackFrames) != 1 {
		t.Fatalf("u0 frames = %+v", st)
	}
	frame := st.StackFrames[0]
	if frame.Line != accLine || frame.Source == nil || frame.Source.Path != harnessFile {
		t.Fatalf("u0 frame = %+v", frame)
	}
	if st2 := decodeBody[StackTraceResponse](t, d.request("stackTrace", ThreadedArguments{ThreadID: u1})); len(st2.StackFrames) != 1 {
		t.Fatalf("u1 frames = %+v", st2)
	}
	// The enclosing Top instance did not hit: no frames.
	if st3 := decodeBody[StackTraceResponse](t, d.request("stackTrace", ThreadedArguments{ThreadID: topID})); len(st3.StackFrames) != 0 {
		t.Fatalf("Top frames = %+v", st3)
	}

	// --- scopes + variables: locals flat, generator variables with the
	// io bundle reconstructed as a structured child (§4.2).
	localsRef, genRef := d.scopeRefs(frame.ID)
	locals := d.varsByName(localsRef)
	if v, ok := locals["acc"]; !ok || numValue(t, v) != 0 {
		t.Fatalf("locals at first stop = %+v", locals)
	}
	gen := d.varsByName(genRef)
	ioVar, ok := gen["io"]
	if !ok || ioVar.VariablesReference == 0 {
		t.Fatalf("generator scope lacks a structured io bundle: %+v", gen)
	}
	ioFields := d.varsByName(ioVar.VariablesReference)
	if v, ok := ioFields["valid"]; !ok || numValue(t, v) != 1 {
		t.Fatalf("io expansion = %+v", ioFields)
	}
	if v, ok := ioFields["bits"]; !ok || numValue(t, v) != 0 {
		t.Fatalf("io.bits at first stop = %+v", ioFields)
	}

	// --- evaluate through the compiled-expression path.
	ev := decodeBody[EvaluateResponse](t, d.request("evaluate",
		EvaluateArguments{Expression: "acc + 40", FrameID: u0}))
	if ev.Result != "40" {
		t.Fatalf("evaluate = %+v", ev)
	}

	// --- next: step to the following enabled statement, same cycle.
	d.request("next", ThreadedArguments{ThreadID: u0})
	d.event("continued")
	step := d.stopped()
	if step.Reason != "step" || step.Time != firstTime {
		t.Fatalf("step stop = %+v (first stop at %d)", step, firstTime)
	}
	// The old variablesReference is dead after a resume.
	d.requestFail("variables", map[string]any{"variablesReference": localsRef})

	// --- continue: next cycle's breakpoint; acc advanced by x.
	var dapStops []struct{ time, acc uint64 }
	dapStops = append(dapStops, struct{ time, acc uint64 }{firstTime, 0})
	for {
		d.request("continue", ThreadedArguments{ThreadID: u0})
		d.event("continued")
		stop = d.stopped()
		if stop.Reason != "breakpoint" {
			t.Fatalf("continue stop = %+v", stop)
		}
		st := decodeBody[StackTraceResponse](t, d.request("stackTrace", ThreadedArguments{ThreadID: u0}))
		lRef, _ := d.scopeRefs(st.StackFrames[0].ID)
		acc := numValue(t, d.varsByName(lRef)["acc"])
		dapStops = append(dapStops, struct{ time, acc uint64 }{stop.Time, acc})
		if len(dapStops) == 3 {
			break
		}
	}
	// Last continue lets the driver finish.
	d.request("continue", ThreadedArguments{ThreadID: u0})
	select {
	case <-simDone:
	case <-time.After(10 * time.Second):
		t.Fatal("simulation did not finish")
	}

	// --- the same script through internal/client, on a fresh server,
	// must see identical stop times and frame contents.
	refAddr, refSim, _ := startSimServer(t)
	refTimes, refAccs := referenceStops(t, refAddr, harnessFile, accLine, func() {
		refSim.Reset("Top.reset", 1)
		refSim.Poke("Top.x", 3)
		refSim.Run(3)
	}, 3)
	for i := range dapStops {
		if refTimes[i] != dapStops[i].time || refAccs[i] != dapStops[i].acc {
			t.Fatalf("stop %d: reference (t=%d acc=%d) vs DAP (t=%d acc=%d)",
				i, refTimes[i], refAccs[i], dapStops[i].time, dapStops[i].acc)
		}
	}

	// --- disconnect ends the DAP session; the runtime survives.
	d.request("disconnect", nil)
	d.event("terminated")
}

// TestDAPConformanceReplay is the acceptance scenario on the replay
// backend: the same lifecycle plus reverse execution.
func TestDAPConformanceReplay(t *testing.T) {
	trace, table, accLine := recordTrace(t, 10)
	addr, eng, rt := startReplayServer(t, trace, table)
	d := newDAPSession(t, addr)

	caps := decodeBody[Capabilities](t, d.request("initialize", InitializeArguments{AdapterID: "hgdb"}))
	if !caps.SupportsStepBack {
		t.Fatal("replay backend did not advertise supportsStepBack")
	}
	d.request("attach", AttachArguments{})
	d.event("initialized")

	sb := decodeBody[SetBreakpointsResponse](t, d.request("setBreakpoints", SetBreakpointsArguments{
		Source:      Source{Path: harnessFile},
		Breakpoints: []SourceBreakpoint{{Line: accLine}},
	}))
	if !sb.Breakpoints[0].Verified {
		t.Fatalf("breakpoint = %+v", sb.Breakpoints[0])
	}
	d.request("configurationDone", nil)

	// Replay the trace forward on a driver goroutine; stops park it.
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		for eng.StepForward() {
		}
	}()

	// Walk two breakpoint hits forward, remembering their times.
	first := d.stopped()
	if first.Reason != "breakpoint" || len(first.HitBreakpointIDs) != 2 {
		t.Fatalf("first stop = %+v", first)
	}
	u0 := d.threadIDByName("Top.u0")
	st := decodeBody[StackTraceResponse](t, d.request("stackTrace", ThreadedArguments{ThreadID: u0}))
	lRef, _ := d.scopeRefs(st.StackFrames[0].ID)
	firstAcc := numValue(t, d.varsByName(lRef)["acc"])

	d.request("continue", ThreadedArguments{ThreadID: u0})
	d.event("continued")
	second := d.stopped()
	if second.Time <= first.Time {
		t.Fatalf("second stop at %d, first at %d", second.Time, first.Time)
	}

	// --- stepBack: reverse to the previous enabled statement.
	d.request("stepBack", ThreadedArguments{ThreadID: u0})
	d.event("continued")
	back := d.stopped()
	if back.Time > second.Time {
		t.Fatalf("stepBack went forward: %d after %d", back.Time, second.Time)
	}

	// --- reverseContinue: runs backwards until the armed breakpoint
	// hits at an earlier time, in one walk inside the runtime: the
	// intermediate statements cost no stops.
	_, stops0 := rt.Stats()
	d.request("reverseContinue", ThreadedArguments{ThreadID: u0})
	d.event("continued")
	rev := d.stopped()
	if rev.Reason != "breakpoint" {
		t.Fatalf("reverseContinue stop = %+v", rev)
	}
	if _, stops1 := rt.Stats(); stops1-stops0 != 1 {
		t.Fatalf("reverseContinue cost %d core stops, want 1", stops1-stops0)
	}
	if rev.Time >= second.Time {
		t.Fatalf("reverseContinue did not move back: %d (from %d)", rev.Time, second.Time)
	}
	// Frame contents at the reverse stop match the forward visit: the
	// same source statement, and acc restored to an earlier value.
	st = decodeBody[StackTraceResponse](t, d.request("stackTrace", ThreadedArguments{ThreadID: u0}))
	if st.StackFrames[0].Line != accLine {
		t.Fatalf("reverse frame = %+v", st.StackFrames[0])
	}
	lRef, _ = d.scopeRefs(st.StackFrames[0].ID)
	revAcc := numValue(t, d.varsByName(lRef)["acc"])
	if rev.Time == first.Time && revAcc != firstAcc {
		t.Fatalf("reverse acc = %d, forward visit saw %d", revAcc, firstAcc)
	}

	// --- reference comparison: forward stop times through
	// internal/client on a fresh replay server over the same trace.
	refAddr, refEng, _ := startReplayServer(t, trace, table)
	refTimes, refAccs := referenceStops(t, refAddr, harnessFile, accLine, func() {
		for refEng.StepForward() {
		}
	}, 2)
	if refTimes[0] != first.Time || refTimes[1] != second.Time {
		t.Fatalf("reference stop times %d,%d vs DAP %d,%d",
			refTimes[0], refTimes[1], first.Time, second.Time)
	}
	if refAccs[0] != firstAcc {
		t.Fatalf("reference acc %d vs DAP %d", refAccs[0], firstAcc)
	}

	// --- disconnect: the server auto-continues the parked replay and
	// the driver runs the trace out.
	d.request("disconnect", nil)
	d.event("terminated")
	select {
	case <-driverDone:
	case <-time.After(10 * time.Second):
		t.Fatal("replay driver stuck after disconnect")
	}
}

// TestDAPBreakpointReplaceSemantics pins the setBreakpoints diff: a
// second request for the same source replaces the previous set — old
// lines disarm, surviving lines stay armed with their ids, condition
// changes re-arm.
func TestDAPBreakpointReplaceSemantics(t *testing.T) {
	addr, s, accLine := startSimServer(t)
	d := newDAPSession(t, addr)
	d.request("initialize", InitializeArguments{})
	d.request("attach", AttachArguments{})
	d.event("initialized")

	src := Source{Path: harnessFile}
	first := decodeBody[SetBreakpointsResponse](t, d.request("setBreakpoints", SetBreakpointsArguments{
		Source:      src,
		Breakpoints: []SourceBreakpoint{{Line: accLine}},
	}))
	// Replace with a conditional breakpoint on the same line: must
	// re-arm (fresh ids) rather than keep the unconditional one.
	second := decodeBody[SetBreakpointsResponse](t, d.request("setBreakpoints", SetBreakpointsArguments{
		Source:      src,
		Breakpoints: []SourceBreakpoint{{Line: accLine, Condition: "acc > 5"}},
	}))
	if !second.Breakpoints[0].Verified {
		t.Fatalf("conditional re-arm failed: %+v", second.Breakpoints[0])
	}
	if second.Breakpoints[0].ID == 0 || first.Breakpoints[0].ID == 0 {
		t.Fatalf("missing ids: %+v %+v", first, second)
	}
	// Empty replace disarms everything: the run must not stop.
	d.request("setBreakpoints", SetBreakpointsArguments{Source: src, Breakpoints: nil})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Top.x", 3)
		s.Run(20)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run blocked: empty setBreakpoints left something armed")
	}
	d.request("disconnect", nil)
	d.event("terminated")
}

// TestDAPPause covers the asynchronous pause mapping onto hgdb's
// interrupt-at-next-statement.
func TestDAPPause(t *testing.T) {
	addr, s, _ := startSimServer(t)
	d := newDAPSession(t, addr)
	d.request("initialize", InitializeArguments{})
	d.request("attach", AttachArguments{})
	d.event("initialized")
	d.request("configurationDone", nil)

	d.request("pause", ThreadedArguments{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Top.x", 3)
		s.Run(5)
	}()
	stop := d.stopped()
	if stop.Reason != "pause" {
		t.Fatalf("pause stop reason = %q", stop.Reason)
	}
	d.request("continue", ThreadedArguments{})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("simulation stuck after pause/continue")
	}
	d.request("disconnect", nil)
	d.event("terminated")
}

// replayToHit starts a DAP session on a replay server, arms the
// accumulate line, replays the trace forward on a goroutine of its
// own, and continues until a hit at or after time from. It returns the
// session, the hit, and a wait for the replay to finish.
func replayToHit(t *testing.T, addr string, accLine int, eng *replay.Engine, from uint64) (*dapClient, StoppedEvent, func()) {
	t.Helper()
	d := newDAPSession(t, addr)
	d.request("initialize", InitializeArguments{})
	d.request("attach", AttachArguments{})
	d.event("initialized")
	d.request("setBreakpoints", SetBreakpointsArguments{
		Source:      Source{Path: harnessFile},
		Breakpoints: []SourceBreakpoint{{Line: accLine}},
	})
	d.request("configurationDone", nil)
	replayDone := make(chan struct{})
	go func() {
		defer close(replayDone)
		for eng.StepForward() {
		}
	}()
	stop := d.stopped()
	for stop.Time < from {
		d.request("continue", ThreadedArguments{})
		d.event("continued")
		stop = d.stopped()
	}
	return d, stop, func() {
		select {
		case <-replayDone:
		case <-time.After(10 * time.Second):
			t.Fatal("replay stuck after disconnect")
		}
	}
}

// TestDAPReverseContinueEntry: with no breakpoint armed, reverseContinue
// runs back to the trace's entry and reports it with reason "entry" at
// time 0.
func TestDAPReverseContinueEntry(t *testing.T) {
	trace, table, accLine := recordTrace(t, 10)
	addr, eng, _ := startReplayServer(t, trace, table)
	d, stop, wait := replayToHit(t, addr, accLine, eng, 4)
	d.request("setBreakpoints", SetBreakpointsArguments{Source: Source{Path: harnessFile}})
	d.request("reverseContinue", ThreadedArguments{})
	d.event("continued")
	entry := d.stopped()
	if entry.Reason != "entry" || entry.Time != 0 {
		t.Fatalf("reverseContinue from t=%d with nothing armed = %+v, want entry at time 0", stop.Time, entry)
	}
	d.request("disconnect", nil)
	d.event("terminated")
	wait()
}

// gatedRewind holds the runtime's rewind to time at until release is
// closed, so a test can act while a reverse walk is in flight.
type gatedRewind struct {
	vpi.Interface
	at      uint64
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedRewind) SetTime(t uint64) error {
	err := g.Interface.SetTime(t)
	if err == nil && t == g.at {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return err
}

// TestDAPPauseDuringReverseContinue: a pause that arrives while the
// runtime walks a reverseContinue lands as the next enabled statement
// back and reports reason "pause".
func TestDAPPauseDuringReverseContinue(t *testing.T) {
	trace, table, accLine := recordTrace(t, 10)
	eng := replayEngine(t, trace)
	gate := &gatedRewind{Interface: eng, at: 2, reached: make(chan struct{}), release: make(chan struct{})}
	addr, _ := serveBackend(t, gate, table)
	// Registered after the server's cleanup, so it runs first: a failed
	// test must not leave the walk parked under a closing server.
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(release)
	d, stop, wait := replayToHit(t, addr, accLine, eng, 5)
	// Nothing armed: without the pause the walk would run to the entry.
	d.request("setBreakpoints", SetBreakpointsArguments{Source: Source{Path: harnessFile}})
	d.request("reverseContinue", ThreadedArguments{})
	d.event("continued")
	select {
	case <-gate.reached:
	case <-time.After(10 * time.Second):
		t.Fatalf("reverseContinue from t=%d never rewound to t=%d", stop.Time, gate.at)
	}
	d.request("pause", ThreadedArguments{})
	release()
	paused := d.stopped()
	if paused.Reason != "pause" || paused.Time != gate.at {
		t.Fatalf("pause during reverseContinue = %+v, want reason pause at time %d", paused, gate.at)
	}
	d.request("disconnect", nil)
	d.event("terminated")
	wait()
}
