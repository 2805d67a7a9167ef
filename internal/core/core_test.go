package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/replay"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/val"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

func hereLine() int {
	var pcs [1]uintptr
	runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:1])
	f, _ := frames.Next()
	return f.Line
}

// testDesign bundles a compiled design with the lines of interest.
type testDesign struct {
	sim     *sim.Simulator
	table   *symtab.Table
	incLine int // counter increment line
	defLine int // default assignment line
}

// buildCounterDesign: a counter with a default wire assignment and a
// conditional increment — two schedulable statements.
func buildCounterDesign(t *testing.T, debug bool) *testDesign {
	t.Helper()
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	nxt := m.Wire("nxt", ir.UIntType(8))
	var defLine, incLine int
	nxt.Set(count)
	defLine = hereLine() - 1
	m.When(en, func() {
		nxt.Set(count.AddMod(m.Lit(1, 8)))
		incLine = hereLine() - 1
	})
	count.Set(nxt)
	out.Set(count)
	s, table := elaborateDesign(t, c, debug)
	return &testDesign{sim: s, table: table, incLine: incLine, defLine: defLine}
}

// elaborateDesign compiles a generated circuit into its symbol table
// and a fresh simulator.
func elaborateDesign(t *testing.T, c *generator.Circuit, debug bool) (*sim.Simulator, *symtab.Table) {
	t.Helper()
	comp, err := passes.Compile(c.MustBuild(), debug)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		t.Fatalf("symtab: %v", err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return sim.New(nl), table
}

// buildSignedDesign: an 8-bit SInt register counting down from 0 under
// an enable, so it is negative from the first decrement on. Returns the
// decrement line.
func buildSignedDesign(t *testing.T) (*sim.Simulator, *symtab.Table, int) {
	t.Helper()
	c := generator.NewCircuit("Down")
	m := c.NewModule("Down")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.SIntType(8))
	acc := m.RegInit("acc", ir.SIntType(8), m.LitS(0, 8))
	var decLine int
	m.When(en, func() {
		acc.Set(acc.SubMod(m.LitS(1, 8)).AsSInt())
		decLine = hereLine() - 1
	})
	out.Set(acc)
	s, table := elaborateDesign(t, c, false)
	return s, table, decLine
}

func TestBreakpointHitWithFrames(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	ids, err := rt.AddBreakpoint("core_test.go", d.incLine, "")
	if err != nil {
		t.Fatalf("add breakpoint: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("armed %d bps", len(ids))
	}
	var events []*StopEvent
	rt.SetHandler(func(ev *StopEvent) Command {
		events = append(events, ev)
		return CmdContinue
	})
	d.sim.Reset("Counter.reset", 1)
	// Two cycles disabled: the enable condition (en) is false, so no
	// stop despite the breakpoint being armed.
	d.sim.Run(2)
	if len(events) != 0 {
		t.Fatalf("stops while disabled: %d", len(events))
	}
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(3)
	if len(events) != 3 {
		t.Fatalf("stops = %d, want 3", len(events))
	}
	ev := events[0]
	if ev.File != "core_test.go" || ev.Line != d.incLine {
		t.Fatalf("stop at %s:%d, want core_test.go:%d", ev.File, ev.Line, d.incLine)
	}
	if len(ev.Threads) != 1 {
		t.Fatalf("threads = %d", len(ev.Threads))
	}
	locals := map[string]uint64{}
	for _, v := range ev.Threads[0].Locals {
		locals[v.Name] = v.Value
	}
	// gdb stop-before semantics: en was low through reset and the two
	// disabled cycles, so the first enabled edge still sees count=0.
	if got, ok := locals["count"]; !ok || got != 0 {
		t.Fatalf("locals[count] = %d (ok=%v), locals=%v", got, ok, locals)
	}
	// Subsequent stops observe the incremented values.
	for i, want := range []uint64{0, 1, 2} {
		for _, v := range events[i].Threads[0].Locals {
			if v.Name == "count" && v.Value != want {
				t.Fatalf("stop %d: count = %d, want %d", i, v.Value, want)
			}
		}
	}
	_ = ids
}

func TestConditionalBreakpoint(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 5"); err != nil {
		t.Fatalf("conditional bp: %v", err)
	}
	var stops []uint64
	rt.SetHandler(func(ev *StopEvent) Command {
		for _, v := range ev.Threads[0].Locals {
			if v.Name == "count" {
				stops = append(stops, v.Value)
			}
		}
		return CmdContinue
	})
	d.sim.Reset("Counter.reset", 1)
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(20)
	if len(stops) != 1 || stops[0] != 5 {
		t.Fatalf("conditional stops = %v, want [5]", stops)
	}
	// Malformed user condition rejected.
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count =="); err == nil {
		t.Fatal("bad condition accepted")
	}
}

func TestFastPathNoBreakpoints(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	rt.SetHandler(func(ev *StopEvent) Command { fired++; return CmdContinue })
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(100)
	if fired != 0 {
		t.Fatalf("stops with no breakpoints: %d", fired)
	}
	evals, stops := rt.Stats()
	if evals != 0 || stops != 0 {
		t.Fatalf("fast path did work: evals=%d stops=%d", evals, stops)
	}
}

func TestStepOver(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddBreakpoint("core_test.go", d.defLine, "")
	var lines []int
	steps := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		lines = append(lines, ev.Line)
		if steps < 2 {
			steps++
			return CmdStep
		}
		return CmdDetach
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Reset("Counter.reset", 1)
	d.sim.Run(3)
	// First stop at the default assignment, then stepping reaches the
	// increment line (its enable holds since en=1), then the register
	// update statement or next cycle's default.
	if len(lines) < 3 {
		t.Fatalf("stops = %v", lines)
	}
	if lines[0] != d.defLine {
		t.Fatalf("first stop at %d, want %d", lines[0], d.defLine)
	}
	if lines[1] != d.incLine {
		t.Fatalf("step reached %d, want %d", lines[1], d.incLine)
	}
}

func TestIntraCycleReverseStep(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddBreakpoint("core_test.go", d.incLine, "")
	var lines []int
	first := true
	rt.SetHandler(func(ev *StopEvent) Command {
		lines = append(lines, ev.Line)
		if first {
			first = false
			return CmdReverseStep // go back to the previous statement
		}
		return CmdDetach
	})
	d.sim.Reset("Counter.reset", 1)
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(2)
	if len(lines) != 2 {
		t.Fatalf("stops = %v", lines)
	}
	if lines[0] != d.incLine || lines[1] != d.defLine {
		t.Fatalf("reverse step went %d -> %d, want %d -> %d",
			lines[0], lines[1], d.incLine, d.defLine)
	}
}

func TestDetachStopsDebugging(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddBreakpoint("core_test.go", d.incLine, "")
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		return CmdDetach
	})
	d.sim.Reset("Counter.reset", 1)
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(10)
	if stops != 1 {
		t.Fatalf("stops after detach = %d", stops)
	}
}

func TestRemoveAndListBreakpoints(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddBreakpoint("core_test.go", d.incLine, "")
	rt.AddBreakpoint("core_test.go", d.defLine, "")
	if got := len(rt.ListBreakpoints()); got != 2 {
		t.Fatalf("listed = %d", got)
	}
	if n := rt.RemoveBreakpoint("core_test.go", d.incLine); n != 1 {
		t.Fatalf("removed = %d", n)
	}
	if got := len(rt.ListBreakpoints()); got != 1 {
		t.Fatalf("listed after remove = %d", got)
	}
	rt.ClearBreakpoints()
	if got := len(rt.ListBreakpoints()); got != 0 {
		t.Fatalf("listed after clear = %d", got)
	}
	if _, err := rt.AddBreakpoint("nope.go", 1, ""); err == nil {
		t.Fatal("bogus location accepted")
	}
}

// buildDualCoreDesign makes a two-instance design whose accumulate
// statement is a shared breakpoint line (one "thread" per core).
func buildDualCoreDesign(t *testing.T) (*sim.Simulator, *symtab.Table, int) {
	t.Helper()
	c := generator.NewCircuit("Top")
	core := c.NewModule("Core")
	dIn := core.Input("d", ir.UIntType(8))
	q := core.Output("q", ir.UIntType(8))
	acc := core.RegInit("acc", ir.UIntType(8), core.Lit(0, 8))
	var accLine int
	core.When(dIn.Bit(0), func() {
		acc.Set(acc.AddMod(dIn))
		accLine = hereLine() - 1
	})
	q.Set(acc)

	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	u0 := top.Instance("u0", core)
	u1 := top.Instance("u1", core)
	u0.IO("d").Set(x)
	u1.IO("d").Set(x) // both get the same input -> both hit together
	y.Set(u0.IO("q").AddMod(u1.IO("q")))

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

func TestDualCoreThreads(t *testing.T) {
	s, table, accLine := buildDualCoreDesign(t)
	rt, err := New(vpi.NewSimBackend(s), table)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddBreakpoint("core_test.go", accLine, "")
	var events []*StopEvent
	rt.SetHandler(func(ev *StopEvent) Command {
		events = append(events, ev)
		return CmdContinue
	})
	s.Reset("Top.reset", 1)
	s.Poke("Top.x", 3) // odd -> both cores enabled
	s.Run(1)
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	if len(events[0].Threads) != 2 {
		t.Fatalf("threads = %d, want 2 (Fig. 4 B)", len(events[0].Threads))
	}
	if events[0].Threads[0].Instance != "Top.u0" || events[0].Threads[1].Instance != "Top.u1" {
		t.Fatalf("thread instances = %s, %s",
			events[0].Threads[0].Instance, events[0].Threads[1].Instance)
	}
}

func TestReplayReverseAcrossCycles(t *testing.T) {
	// Record a trace, then reverse-debug it.
	d := buildCounterDesign(t, false)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(d.sim, &buf)
	d.sim.Reset("Counter.reset", 1)
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(10)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := vcd.ParseStore(&buf, vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := replay.NewStore(st)
	rt, err := New(eng, d.table)
	if err != nil {
		t.Fatalf("runtime over replay: %v", err)
	}
	rt.AddBreakpoint("core_test.go", d.incLine, "")
	var stops []struct {
		time  uint64
		count uint64
	}
	rt.SetHandler(func(ev *StopEvent) Command {
		var cnt uint64
		for _, v := range ev.Threads[0].Locals {
			if v.Name == "count" {
				cnt = v.Value
			}
		}
		stops = append(stops, struct{ time, count uint64 }{ev.Time, cnt})
		// Keep reverse-stepping until execution crosses the cycle
		// boundary (intra-cycle steps first, then SetTime rewinds).
		if len(stops) < 8 && ev.Time == stops[0].time {
			return CmdReverseStep
		}
		return CmdDetach
	})
	// Jump into the middle of the trace and fire the schedule there.
	eng.SetTime(5)
	eng.StepForward() // evaluates at t=6
	if len(stops) < 2 {
		t.Fatalf("stops = %+v", stops)
	}
	last := stops[len(stops)-1]
	if last.time >= stops[0].time {
		t.Fatalf("reverse never crossed the cycle boundary: %+v", stops)
	}
	if last.count >= stops[0].count {
		t.Fatalf("reverse did not observe earlier state: %+v", stops)
	}
}

// TestReplayReverseAcrossCyclesCheckpointed is the small-block twin of
// TestReplayReverseAcrossCycles: the same reverse schedule, driven
// through 2-cycle blocks and a checkpoint every 2 cycles. It also
// checks the Prefetcher wiring — arming the breakpoint must materialize
// the dependency union in the store — and that crossing cycle
// boundaries backwards left restore points behind.
func TestReplayReverseAcrossCyclesCheckpointed(t *testing.T) {
	d := buildCounterDesign(t, false)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(d.sim, &buf)
	d.sim.Reset("Counter.reset", 1)
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(10)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := vcd.ParseStore(&buf, vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := replay.NewStore(st, replay.WithCheckpointInterval(2))
	rt, err := New(eng, d.table)
	if err != nil {
		t.Fatalf("runtime over checkpointed replay: %v", err)
	}
	rt.AddBreakpoint("core_test.go", d.incLine, "")
	var stops []struct {
		time  uint64
		count uint64
	}
	rt.SetHandler(func(ev *StopEvent) Command {
		var cnt uint64
		for _, v := range ev.Threads[0].Locals {
			if v.Name == "count" {
				cnt = v.Value
			}
		}
		stops = append(stops, struct{ time, count uint64 }{ev.Time, cnt})
		if len(stops) < 8 && ev.Time == stops[0].time {
			return CmdReverseStep
		}
		return CmdDetach
	})
	eng.SetTime(5)
	eng.StepForward() // evaluates at t=6
	if len(stops) < 2 {
		t.Fatalf("stops = %+v", stops)
	}
	last := stops[len(stops)-1]
	if last.time >= stops[0].time {
		t.Fatalf("reverse never crossed the cycle boundary: %+v", stops)
	}
	if last.count >= stops[0].count {
		t.Fatalf("reverse did not observe earlier state: %+v", stops)
	}
	// The enable condition's dependency union was advised via Prefetch
	// at arm time; its signals must be materialized in the store.
	if sig, ok := st.Signal("Counter.en"); !ok || !sig.Materialized() {
		t.Fatalf("dependency signal not materialized via Prefetch (ok=%v)", ok)
	}
	// Frame reconstruction read unmaterialized locals at each stop,
	// which syncs replay state and drops checkpoints on the way.
	if eng.Checkpoints() == 0 {
		t.Fatal("no checkpoints created by reverse schedule")
	}
}

func TestEvaluateWatchExpression(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	d.sim.Reset("Counter.reset", 1)
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(7)
	d.sim.Settle()
	v, err := rt.EvaluateBits("Counter", "count + 1")
	if err != nil {
		t.Fatal(err)
	}
	if v.V0 != 8 || v.HasX() {
		t.Fatalf("watch = %s, want 8", v)
	}
	if _, err := rt.EvaluateBits("Counter", "ghost + 1"); err == nil {
		t.Fatal("unknown name evaluated")
	}
}

func TestStructureVariables(t *testing.T) {
	vars := []Variable{
		{Name: "io.out.bits", Value: 5},
		{Name: "io.out.valid", Value: 1},
		{Name: "io.in", Value: 2},
		{Name: "count", Value: 9},
	}
	tree := Structure(vars)
	if len(tree) != 2 { // count, io
		t.Fatalf("roots = %d", len(tree))
	}
	if tree[0].Name != "count" || tree[0].Leaf == nil || tree[0].Leaf.Value != 9 {
		t.Fatalf("count node = %+v", tree[0])
	}
	io := tree[1]
	if io.Name != "io" || len(io.Children) != 2 {
		t.Fatalf("io node = %+v", io)
	}
	var outNode *StructuredVar
	for i := range io.Children {
		if io.Children[i].Name == "out" {
			outNode = &io.Children[i]
		}
	}
	if outNode == nil || len(outNode.Children) != 2 {
		t.Fatalf("io.out = %+v", outNode)
	}
}

func TestDebugModeFramesRicher(t *testing.T) {
	// In debug mode every SSA temp survives, so frames carry at least
	// as many variables.
	countLocals := func(debug bool) int {
		d := buildCounterDesign(t, debug)
		rt, err := New(vpi.NewSimBackend(d.sim), d.table)
		if err != nil {
			t.Fatal(err)
		}
		rt.AddBreakpoint("core_test.go", d.incLine, "")
		total := 0
		rt.SetHandler(func(ev *StopEvent) Command {
			total = len(ev.Threads[0].Locals)
			return CmdDetach
		})
		d.sim.Reset("Counter.reset", 1)
		d.sim.Poke("Counter.en", 1)
		d.sim.Run(2)
		return total
	}
	opt := countLocals(false)
	dbg := countLocals(true)
	if dbg < opt {
		t.Fatalf("debug locals (%d) < optimized locals (%d)", dbg, opt)
	}
	if opt == 0 {
		t.Fatal("no locals in optimized frames")
	}
}

// TestSignedConditionsMatchReference: a signal keeps its sign across
// the four-state lowering (eval.Value.ToBits / eval.FromBits), so on a
// signed register the default path and the EvalBits reference stop at
// exactly the same edges, and EvaluateBits sees the register as
// negative. A replay of the same run is unsigned on both paths, since
// VCD carries no sign.
func TestSignedConditionsMatchReference(t *testing.T) {
	drive := func(s *sim.Simulator) {
		s.Reset("Down.reset", 1)
		s.Poke("Down.en", 1)
		s.Run(12)
	}
	recorded, table, decLine := buildSignedDesign(t)
	var trace bytes.Buffer
	rec := vcd.NewRecorder(recorded, &trace)
	drive(recorded)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	// run arms cond on a fresh live simulation or a replay of the trace,
	// on the default path or the reference, and returns the stop times.
	run := func(cond string, replayed, reference bool) []uint64 {
		var backend vpi.Interface
		var advance func()
		if replayed {
			st, err := vcd.ParseStore(bytes.NewReader(trace.Bytes()), vcd.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			eng := replay.NewStore(st)
			backend, advance = eng, func() {
				for eng.StepForward() {
				}
			}
		} else {
			s, _, _ := buildSignedDesign(t)
			backend, advance = vpi.NewSimBackend(s), func() { drive(s) }
		}
		rt, err := New(backend, table)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetExhaustiveEval(reference)
		if _, err := rt.AddBreakpoint("core_test.go", decLine, cond); err != nil {
			t.Fatal(err)
		}
		var times []uint64
		rt.SetHandler(func(ev *StopEvent) Command {
			times = append(times, ev.Time)
			return CmdContinue
		})
		advance()
		return times
	}
	for _, tc := range []struct {
		cond       string
		live, repl int // stop counts; -1 = only compared across paths
	}{
		{"acc < 0", 11, 0},
		{"acc > 5", 0, -1},
		{"acc + 1 == 0", 1, -1},
		{"acc >> 1 == 127", 0, -1},
	} {
		for _, replayed := range []bool{false, true} {
			want := map[bool]int{false: tc.live, true: tc.repl}[replayed]
			def, ref := run(tc.cond, replayed, false), run(tc.cond, replayed, true)
			if want >= 0 && len(def) != want {
				t.Errorf("%s (replay %v): default stopped at %v, want %d stops", tc.cond, replayed, def, want)
			}
			if fmt.Sprint(def) != fmt.Sprint(ref) {
				t.Errorf("%s (replay %v): default stops %v, reference stops %v", tc.cond, replayed, def, ref)
			}
		}
	}

	// The recorded simulation ended with acc counted down below zero.
	rt, err := New(vpi.NewSimBackend(recorded), table)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.EvaluateBits("Down", "acc < 0")
	if err != nil {
		t.Fatal(err)
	}
	if b.Truth() != val.True {
		t.Fatalf("EvaluateBits(acc < 0) = %s with acc negative", b)
	}
}
