package dap

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/server"
	"repro/internal/symtab"
)

// The hub-mode scenario: one adapter per editor window, all pointed at
// a single hub endpoint. launch registers a runtime on the registry
// from its spec arguments, attach picks an existing one by id, and the
// adapter re-announces capabilities once the backend's nature is known
// (initialize answered before any runtime existed).

// startDAPHub serves an empty hub on a loopback port.
func startDAPHub(t *testing.T) (*hub.Hub, string) {
	t.Helper()
	h := hub.New(hub.Options{})
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h, addr
}

// newDAPHubSession binds a hub-mode adapter (no runtime yet) to an
// in-memory pipe.
func newDAPHubSession(t *testing.T, addr string) *dapClient {
	t.Helper()
	clientEnd, adapterEnd := net.Pipe()
	ad, err := New(adapterEnd, Options{Addr: addr, Hub: true})
	if err != nil {
		t.Fatalf("hub adapter: %v", err)
	}
	go ad.Serve()
	t.Cleanup(func() { clientEnd.Close(); adapterEnd.Close() })
	return &dapClient{t: t, pipe: clientEnd, conn: NewConn(clientEnd)}
}

// capabilitiesEvent waits for the post-bind capabilities event and
// decodes its body.
func (d *dapClient) capabilitiesEvent() Capabilities {
	d.t.Helper()
	return decodeBody[CapabilitiesEventBody](d.t, d.event("capabilities")).Capabilities
}

// hubTraceFiles records the conformance harness's 10-cycle trace into
// hub-loadable files. It returns their paths, the accumulate line and
// the trace's last cycle.
func hubTraceFiles(t *testing.T) (vcdPath, symtabPath string, accLine int, end uint64) {
	t.Helper()
	trace, table, accLine := recordTrace(t, 10)
	vcdPath, symtabPath = writeTraceFiles(t, trace, table)
	return vcdPath, symtabPath, accLine, replayEngine(t, trace).MaxTime()
}

// writeTraceFiles saves a trace and its symbol table where a hub launch
// can load them.
func writeTraceFiles(t *testing.T, trace []byte, table *symtab.Table) (vcdPath, symtabPath string) {
	t.Helper()
	dir := t.TempDir()
	vcdPath = filepath.Join(dir, "trace.vcd")
	if err := os.WriteFile(vcdPath, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	symtabPath = filepath.Join(dir, "trace.symtab")
	sf, err := os.Create(symtabPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Save(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	return vcdPath, symtabPath
}

func TestDAPHubLifecycle(t *testing.T) {
	_, addr := startDAPHub(t)
	vcdPath, symtabPath, accLine, _ := hubTraceFiles(t)

	// --- editor 1: launch a replay runtime through the registry.
	d1 := newDAPHubSession(t, addr)
	caps := decodeBody[Capabilities](t, d1.request("initialize", InitializeArguments{AdapterID: "hgdb"}))
	if caps.SupportsStepBack {
		t.Fatal("unbound hub adapter advertised supportsStepBack")
	}
	// Runtime-dependent requests are refused until launch/attach binds.
	d1.requestFail("threads", nil)
	d1.requestFail("setBreakpoints", SetBreakpointsArguments{Source: Source{Path: harnessFile}})
	// attach needs a runtime id, and the id must exist on the registry.
	d1.requestFail("attach", AttachArguments{})
	d1.requestFail("attach", AttachArguments{Runtime: "ghost"})

	d1.request("launch", AttachArguments{Name: "r0", Kind: "replay", VCD: vcdPath, Symtab: symtabPath})
	// The bind re-announces capabilities — now truthful about reverse
	// execution — before signalling initialized.
	if caps := d1.capabilitiesEvent(); !caps.SupportsStepBack {
		t.Fatal("replay runtime did not re-announce supportsStepBack")
	}
	d1.event("initialized")

	sb := decodeBody[SetBreakpointsResponse](t, d1.request("setBreakpoints", SetBreakpointsArguments{
		Source:      Source{Path: harnessFile},
		Breakpoints: []SourceBreakpoint{{Line: accLine}},
	}))
	if !sb.Breakpoints[0].Verified {
		t.Fatalf("breakpoint = %+v", sb.Breakpoints[0])
	}
	d1.request("configurationDone", nil)

	// The hub's own drive loop replays the trace; the armed line hits.
	first := d1.stopped()
	if first.Reason != "breakpoint" {
		t.Fatalf("first stop = %+v", first)
	}

	// Reverse execution works through the hub-routed session.
	d1.request("stepBack", ThreadedArguments{ThreadID: 1})
	d1.event("continued")
	back := d1.stopped()
	if back.Time > first.Time {
		t.Fatalf("stepBack went forward: %d after %d", back.Time, first.Time)
	}

	// Rebinding to a different runtime mid-session is refused.
	d1.requestFail("attach", AttachArguments{Runtime: "elsewhere"})

	// --- editor 2: launch with an empty spec defaults to a live sim.
	d2 := newDAPHubSession(t, addr)
	d2.request("initialize", InitializeArguments{})
	d2.request("launch", AttachArguments{})
	if caps := d2.capabilitiesEvent(); caps.SupportsStepBack {
		t.Fatal("live sim runtime advertised supportsStepBack")
	}
	d2.event("initialized")
	threads := decodeBody[ThreadsResponse](t, d2.request("threads", nil))
	if len(threads.Threads) == 0 {
		t.Fatal("sim runtime has no instances")
	}

	// The registry saw both launches.
	hc, err := client.DialHub(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	infos, err := hc.Runtimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != "r0" {
		t.Fatalf("registry = %+v", infos)
	}

	// --- editor 3: attach to the replay runtime editor 1 launched. The
	// parked stop is replayed to the late attacher.
	d3 := newDAPHubSession(t, addr)
	d3.request("initialize", InitializeArguments{})
	d3.request("attach", AttachArguments{Runtime: "r0"})
	if caps := d3.capabilitiesEvent(); !caps.SupportsStepBack {
		t.Fatal("attach to replay runtime did not re-announce supportsStepBack")
	}
	d3.event("initialized")
	if stop := d3.stopped(); stop.Reason == "" {
		t.Fatalf("late-attach stop = %+v", stop)
	}

	d3.request("disconnect", nil)
	d3.event("terminated")
	d2.request("disconnect", nil)
	d2.event("terminated")
	d1.request("disconnect", nil)
	d1.event("terminated")

	// Evicting through the control session drains cleanly afterwards.
	if err := hc.Evict("r0"); err != nil {
		t.Fatal(err)
	}
	infos, err = hc.Runtimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("registry after evict = %+v", infos)
	}
}

// TestDAPHubEndOfTrace: a hub replay holds at the end of its trace. A
// continue past the last hit stops at the last cycle with reason "end",
// the next continue stops there again, and reverseContinue returns to
// the last hit. A launch whose breakpoint never hits ends there too.
func TestDAPHubEndOfTrace(t *testing.T) {
	_, addr := startDAPHub(t)
	vcdPath, symtabPath, accLine, end := hubTraceFiles(t)
	launch := func(name, cond string) *dapClient {
		d := newDAPHubSession(t, addr)
		d.request("initialize", InitializeArguments{})
		d.request("launch", AttachArguments{Name: name, Kind: "replay", VCD: vcdPath, Symtab: symtabPath})
		d.capabilitiesEvent()
		d.event("initialized")
		d.request("setBreakpoints", SetBreakpointsArguments{
			Source:      Source{Path: harnessFile},
			Breakpoints: []SourceBreakpoint{{Line: accLine, Condition: cond}},
		})
		d.request("configurationDone", nil)
		return d
	}
	// acc grows by 3 a cycle: it is never 1, and below 9 only in the
	// first few cycles.
	if stop := launch("never", "acc == 1").stopped(); stop.Reason != "end" || stop.Time != end {
		t.Fatalf("first stop with a breakpoint that never hits = %+v, want reason end at t=%d", stop, end)
	}
	d := launch("early", "acc < 9")
	last := d.stopped()
	if last.Reason != "breakpoint" {
		t.Fatalf("first stop = %+v", last)
	}
	cont := func() StoppedEvent {
		d.request("continue", ThreadedArguments{ThreadID: 1})
		d.event("continued")
		return d.stopped()
	}
	stop := cont()
	for i := 0; stop.Reason == "breakpoint"; i++ {
		if stop.Time <= last.Time || i == 10 {
			t.Fatalf("continue went from the hit at t=%d to a hit at t=%d", last.Time, stop.Time)
		}
		last, stop = stop, cont()
	}
	if stop.Reason != "end" || stop.Time != end || !strings.HasPrefix(stop.Description, "end of trace at ") {
		t.Fatalf("continue past the last hit (t=%d) = %+v, want reason end at t=%d", last.Time, stop, end)
	}
	if again := cont(); again.Reason != "end" || again.Time != end {
		t.Fatalf("continue from the end = %+v, want reason end at t=%d", again, end)
	}
	d.request("reverseContinue", ThreadedArguments{ThreadID: 1})
	d.event("continued")
	if back := d.stopped(); back.Reason != "breakpoint" || back.Time != last.Time {
		t.Fatalf("reverseContinue from the end = %+v, want the last hit at t=%d", back, last.Time)
	}
	d.request("disconnect", nil)
	d.event("terminated")
}

// TestDAPHubMalformedLaunch: launch arguments that do not decode fail
// the request instead of launching whatever the fields that did decode
// describe (here a live counter sim, since the mistyped kind stays
// empty). Nothing is registered, and the adapter stays usable.
func TestDAPHubMalformedLaunch(t *testing.T) {
	_, addr := startDAPHub(t)
	vcdPath, symtabPath, _, _ := hubTraceFiles(t)
	d := newDAPHubSession(t, addr)
	d.request("initialize", InitializeArguments{})
	resp := d.requestFail("launch", json.RawMessage(`{"kind": 5, "vcd": "x"}`))
	if !strings.Contains(resp.Msg, "bad launch arguments") || !strings.Contains(resp.Msg, "kind") {
		t.Fatalf("malformed launch answered %q, want it to name the bad argument", resp.Msg)
	}
	if resp := d.requestFail("attach", json.RawMessage(`{"runtime": ["r0"]}`)); !strings.Contains(resp.Msg, "bad attach arguments") {
		t.Fatalf("malformed attach answered %q", resp.Msg)
	}

	hc, err := client.DialHub(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if infos, err := hc.Runtimes(); err != nil || len(infos) != 0 {
		t.Fatalf("registry after malformed launch = %+v, %v; want empty", infos, err)
	}

	d.request("launch", AttachArguments{Name: "r0", Kind: "replay", VCD: vcdPath, Symtab: symtabPath})
	if caps := d.capabilitiesEvent(); !caps.SupportsStepBack {
		t.Fatal("well-formed replay launch did not bind")
	}
	d.event("initialized")
	if infos, err := hc.Runtimes(); err != nil || len(infos) != 1 || infos[0].ID != "r0" {
		t.Fatalf("registry after launch = %+v, %v", infos, err)
	}
	d.request("disconnect", nil)
	d.event("terminated")
}

// TestDAPSessionIsBinary: the editor's hgdb session negotiates binary
// event frames without deltas, in both modes, while a JSON observer on
// the same runtime gets the same stops as JSON text, so every stop is
// encoded both ways. What the editor shows at the stop (every variable
// of both scopes, expanded, with its rendered four-state value and
// type) must equal the stop's frame as the JSON observer decoded it.
func TestDAPSessionIsBinary(t *testing.T) {
	trace, table, accLine := fourStateTrace(t)
	// The breakpoint holds while acc still carries its reset x's.
	bps := SetBreakpointsArguments{
		Source:      Source{Path: harnessFile},
		Breakpoints: []SourceBreakpoint{{Line: accLine, Condition: "acc === 8'bxxxxxxxx"}},
	}

	t.Run("standalone", func(t *testing.T) {
		eng := replayEngine(t, trace)
		rt, err := core.New(eng, table)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(rt, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		d := newDAPSession(t, addr)
		obs, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		d.request("initialize", InitializeArguments{})
		d.request("attach", AttachArguments{})
		d.event("initialized")
		d.request("setBreakpoints", bps)
		d.request("configurationDone", nil)
		driverDone := make(chan struct{})
		go func() {
			defer close(driverDone)
			for eng.StepForward() {
			}
		}()
		checkEditorMatchesJSON(t, d, obs)
		// The observer leaves first, so the editor's disconnect resumes
		// the parked replay and the driver runs the trace out.
		obs.Close()
		d.request("disconnect", nil)
		d.event("terminated")
		select {
		case <-driverDone:
		case <-time.After(10 * time.Second):
			t.Fatal("replay driver stuck after disconnect")
		}
	})

	t.Run("hub", func(t *testing.T) {
		_, addr := startDAPHub(t)
		vcdPath, symtabPath := writeTraceFiles(t, trace, table)
		d := newDAPHubSession(t, addr)
		d.request("initialize", InitializeArguments{})
		d.request("launch", AttachArguments{Name: "r0", Kind: "replay", VCD: vcdPath, Symtab: symtabPath})
		d.capabilitiesEvent()
		d.event("initialized")
		obs, err := client.DialOpts(addr, client.Options{Runtime: "r0"})
		if err != nil {
			t.Fatal(err)
		}
		defer obs.Close()
		if _, err := obs.WaitEvent("welcome", 10*time.Second); err != nil {
			t.Fatal(err)
		}
		d.request("setBreakpoints", bps)
		d.request("configurationDone", nil)
		checkEditorMatchesJSON(t, d, obs)
		d.request("disconnect", nil)
		d.event("terminated")
	})
}

// checkEditorMatchesJSON waits for the first stop on both sessions,
// checks the editor's session in the server's session list, and
// compares what the editor shows with the JSON observer's frame.
func checkEditorMatchesJSON(t *testing.T, d *dapClient, obs *client.Client) {
	t.Helper()
	stopped := d.stopped()
	stop, err := obs.WaitStop(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Time != stopped.Time || stopped.Reason != "breakpoint" {
		t.Fatalf("editor stopped %+v, JSON observer at t=%d", stopped, stop.Time)
	}

	sessions, err := obs.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions = %+v, want the editor and the observer", sessions)
	}
	for _, s := range sessions {
		if s.ID == obs.SessionID() {
			if s.Encoding != "json" {
				t.Fatalf("observer session = %+v, want json", s)
			}
			continue
		}
		if s.Encoding != "binary" || s.Delta || s.FullFrames == 0 {
			t.Fatalf("editor session = %+v, want binary full frames without deltas", s)
		}
	}

	if len(stop.Threads) != 2 {
		t.Fatalf("stop has %d threads, want both cores", len(stop.Threads))
	}
	for _, th := range stop.Threads {
		frames := decodeBody[StackTraceResponse](t, d.request("stackTrace",
			ThreadedArguments{ThreadID: d.threadIDByName(th.Instance)}))
		if len(frames.StackFrames) != 1 {
			t.Fatalf("%s frames = %+v", th.Instance, frames)
		}
		lRef, gRef := d.scopeRefs(frames.StackFrames[0].ID)
		for _, scope := range []struct {
			name string
			ref  int
			vars []core.Variable
		}{{"Locals", lRef, th.Locals}, {"Generator", gRef, th.Generator}} {
			want := map[string]string{}
			for i := range scope.vars {
				v := &scope.vars[i]
				typ := ""
				if !v.Unknown {
					typ = fmt.Sprintf("u%d", v.Width)
				}
				want[v.Name] = v.Display() + " " + typ
			}
			got := map[string]string{}
			d.shownVars(scope.ref, "", got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: editor shows %v, JSON frame has %v", th.Instance, scope.name, got, want)
			}
		}
		if len(th.Locals) == 0 {
			t.Fatalf("%s has no locals", th.Instance)
		}
	}
	for _, v := range stop.Threads[0].Locals {
		if v.Name == "acc" && v.Display() != "8'bxxxxxxxx" {
			t.Fatalf("acc = %s at the stop, want the reset x's", v.Display())
		}
	}
}

// shownVars expands a variables reference completely, recording each
// variable the editor shows with a value (every node but a pure
// structure node) as "value type" under its dotted name.
func (d *dapClient) shownVars(ref int, prefix string, out map[string]string) {
	d.t.Helper()
	resp := decodeBody[VariablesResponse](d.t, d.request("variables", map[string]any{"variablesReference": ref}))
	for _, v := range resp.Variables {
		name := prefix + v.Name
		if v.VariablesReference != 0 {
			d.shownVars(v.VariablesReference, name+".", out)
			if strings.HasSuffix(v.Value, " fields}") {
				continue
			}
		}
		out[name] = v.Value + " " + v.Type
	}
}
