package dap

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/symtab"
	"repro/internal/vcd"
)

// This file is the four-state acceptance scenario: a trace whose
// registers carry x at reset and that contains a 128-bit bus must
// round-trip VCD parse → disk store → checkpointed replay → breakpoint
// condition evaluation → DAP variable rendering, with the unknown bits
// surviving every hop and rendering as Verilog-style literals.

// fourStateTrace records the dual-core design (input poked before
// reset, so the breakpoint enable holds from the first edge) and then
// injects four-state and wide content textually: both acc registers
// dump as all-x at reset, and a 128-bit bus appears in the Top scope —
// all-x at reset, a known sparse value from t=4.
func fourStateTrace(t *testing.T) ([]byte, *symtab.Table, int) {
	t.Helper()
	s, table, accLine := buildDualCoreBundle(t)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(s, &buf)
	s.Poke("Top.x", 3) // odd -> both cores enabled from the start
	s.Reset("Top.reset", 1)
	s.Run(8)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	txt := buf.String()
	xs := strings.Repeat("x", 128)
	known := "1" + strings.Repeat("0", 126) + "1"
	for _, r := range [][2]string{
		// A 128-bit bus in the Top scope (id "~" is unused by the dump).
		{"$scope module Top $end\n", "$scope module Top $end\n$var wire 128 ~ bus $end\n"},
		{"$dumpvars\n", "$dumpvars\nb" + xs + " ~\n"},
		// Both acc registers start unknown instead of zero ("+" is
		// Top.u0.acc, "3" is Top.u1.acc in the recorder's id order).
		{"b0 +\n", "bxxxxxxxx +\n"},
		{"b0 3\n", "bxxxxxxxx 3\n"},
		{"#4\n", "#4\nb" + known + " ~\n"},
	} {
		if !strings.Contains(txt, r[0]) {
			t.Fatalf("recorded trace lacks %q; recorder format changed?", r[0])
		}
		txt = strings.Replace(txt, r[0], r[1], 1)
	}
	return []byte(txt), table, accLine
}

func TestDAPFourStateEndToEnd(t *testing.T) {
	trace, table, accLine := fourStateTrace(t)

	// --- index → disk store → reopen: the mask plane and the wide
	// signal survive the disk format round trip.
	dir := t.TempDir()
	vcdPath, storePath := filepath.Join(dir, "trace.vcd"), filepath.Join(dir, "trace.hgdbstore")
	if err := os.WriteFile(vcdPath, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vcd.IndexFile(vcdPath, storePath, vcd.StoreOptions{BlockSize: 4}); err != nil {
		t.Fatal(err)
	}
	st, err := vcd.OpenStoreFile(storePath, vcd.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.Stats.XZChanges == 0 {
		t.Fatal("disk store lost the x/z change statistic")
	}
	if st.Stats.MaxWidth < 128 {
		t.Fatalf("disk store MaxWidth = %d, want >= 128", st.Stats.MaxWidth)
	}

	// --- checkpointed replay + runtime + server + DAP adapter.
	eng := replay.NewStore(st, replay.WithCheckpointInterval(4))
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
	d.request("initialize", InitializeArguments{AdapterID: "hgdb"})
	d.request("attach", AttachArguments{})
	d.event("initialized")

	// --- four-state condition evaluation: case equality against the
	// all-x literal holds only while acc still carries its reset x's,
	// so the breakpoint gates on genuinely unknown state.
	sb := decodeBody[SetBreakpointsResponse](t, d.request("setBreakpoints", SetBreakpointsArguments{
		Source: Source{Path: harnessFile},
		Breakpoints: []SourceBreakpoint{
			{Line: accLine, Condition: "acc === 8'bxxxxxxxx"},
		},
	}))
	if !sb.Breakpoints[0].Verified {
		t.Fatalf("four-state conditional breakpoint rejected: %+v", sb.Breakpoints[0])
	}
	d.request("configurationDone", nil)

	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		for eng.StepForward() {
		}
	}()

	stop := d.stopped()
	if stop.Reason != "breakpoint" {
		t.Fatalf("stop = %+v", stop)
	}

	// --- DAP variables: the unknown register renders as the Verilog
	// literal, not a fabricated number.
	u0 := d.threadIDByName("Top.u0")
	frames := decodeBody[StackTraceResponse](t, d.request("stackTrace", ThreadedArguments{ThreadID: u0}))
	if len(frames.StackFrames) != 1 {
		t.Fatalf("frames = %+v", frames)
	}
	lRef, _ := d.scopeRefs(frames.StackFrames[0].ID)
	locals := d.varsByName(lRef)
	acc, ok := locals["acc"]
	if !ok {
		t.Fatalf("locals = %+v", locals)
	}
	if acc.Value != "8'bxxxxxxxx" {
		t.Fatalf("acc rendered %q, want 8'bxxxxxxxx", acc.Value)
	}

	// --- evaluate over the 128-bit bus: still all-x at the stop, both
	// as a rendered literal and under wide case equality.
	ev := decodeBody[EvaluateResponse](t, d.request("evaluate",
		EvaluateArguments{Expression: "Top.bus", FrameID: u0}))
	if want := "128'b" + strings.Repeat("x", 128); ev.Result != want {
		t.Fatalf("bus rendered %q, want %q", ev.Result, want)
	}
	slice := decodeBody[EvaluateResponse](t, d.request("evaluate",
		EvaluateArguments{Expression: "Top.bus[127:120]", FrameID: u0}))
	if slice.Result != "8'bxxxxxxxx" {
		t.Fatalf("bus slice rendered %q", slice.Result)
	}
	caseEq := decodeBody[EvaluateResponse](t, d.request("evaluate",
		EvaluateArguments{Expression: "Top.bus === 128'b" + strings.Repeat("x", 128), FrameID: u0}))
	if caseEq.Result != "1" {
		t.Fatalf("wide case equality = %q, want 1", caseEq.Result)
	}

	// --- disconnect parks nothing: the server auto-continues and the
	// replay driver runs the trace out (acc leaves x, so the condition
	// stops firing).
	d.request("disconnect", nil)
	d.event("terminated")
	select {
	case <-driverDone:
	case <-time.After(10 * time.Second):
		t.Fatal("replay driver stuck after disconnect")
	}
}
