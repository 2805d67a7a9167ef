package core

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// TestStructureNumericIndexOrder pins the ordering fix for flattened
// vector elements: bracketed indices sort numerically (v[2] < v[10]),
// not lexicographically (v[10] < v[2]). DAP variable expansion renders
// Structure's child order directly, so this is user-visible.
func TestStructureNumericIndexOrder(t *testing.T) {
	vars := []Variable{
		{Name: "v[10].bits", Value: 10},
		{Name: "v[2].bits", Value: 2},
		{Name: "v[0].bits", Value: 0},
		{Name: "v[1].bits", Value: 1},
		{Name: "io.valid", Value: 1},
	}
	tree := Structure(vars)
	// splitDots keeps bracketed indices attached to their segment, so
	// each v[N] is its own top-level node alongside io.
	want := []string{"io", "v[0]", "v[1]", "v[2]", "v[10]"}
	if len(tree) != len(want) {
		t.Fatalf("top-level nodes = %d, want %d", len(tree), len(want))
	}
	for i, w := range want {
		if got := tree[i].Name; got != w {
			t.Fatalf("node %d = %q, want %q (indices must order numerically)", i, got, w)
		}
	}
	for _, sv := range tree[1:] {
		if len(sv.Children) != 1 || sv.Children[0].Name != "bits" {
			t.Fatalf("%s children = %+v, want one leaf 'bits'", sv.Name, sv.Children)
		}
	}
}

// TestNaturalLess pins the comparator itself, including the totality
// tie-breaks for different spellings of the same number.
func TestNaturalLess(t *testing.T) {
	ordered := []string{
		"a", "a[0]", "a[1]", "a[2]", "a[10]", "a[11]", "b",
		"v2", "v10", "w[1].x", "w[1].y", "w[2].x",
	}
	for i := range ordered {
		for j := range ordered {
			got := naturalLess(ordered[i], ordered[j])
			if want := i < j; got != want {
				t.Errorf("naturalLess(%q, %q) = %v, want %v", ordered[i], ordered[j], got, want)
			}
		}
	}
	// Equal-value different-spelling pairs stay a strict weak order.
	if naturalLess("a07", "a7") == naturalLess("a7", "a07") {
		t.Fatal("naturalLess is not antisymmetric on 07 vs 7")
	}
	// sortVars uses the same comparator.
	vars := []Variable{{Name: "r[10]"}, {Name: "r[9]"}, {Name: "r[1]"}}
	sortVars(vars)
	if !sort.SliceIsSorted(vars, func(i, j int) bool { return naturalLess(vars[i].Name, vars[j].Name) }) ||
		vars[0].Name != "r[1]" || vars[1].Name != "r[9]" || vars[2].Name != "r[10]" {
		t.Fatalf("sortVars order = %v", []string{vars[0].Name, vars[1].Name, vars[2].Name})
	}
}

// referenceThreads is the per-stop frame reconstruction buildEvent ran
// before frame plans, kept as the reference the plans are pinned
// against: symbol-table scans, path remapping and natural sorts at
// every stop. It rebuilds ev's threads from their breakpoint ids with
// values read now.
func referenceThreads(rt *Runtime, ev *StopEvent) []Thread {
	var threads []Thread
	for _, hit := range ev.Threads {
		th := Thread{BreakpointID: hit.BreakpointID, Instance: hit.Instance}
		for _, b := range rt.table.ScopeVars(hit.BreakpointID) {
			full := rt.remap.ToSim(hit.Instance + "." + b.RTL)
			th.Locals = append(th.Locals, rt.frameVar(b.Name, full))
		}
		if instID, ok := rt.table.InstanceIDByName(hit.Instance); ok {
			for _, b := range rt.table.GeneratorVars(instID) {
				full := rt.remap.ToSim(hit.Instance + "." + b.RTL)
				th.Generator = append(th.Generator, rt.frameVar(b.Name, full))
			}
		}
		sortVars(th.Locals)
		sortVars(th.Generator)
		threads = append(threads, th)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i].Instance < threads[j].Instance })
	return threads
}

func sortVars(vars []Variable) {
	sort.Slice(vars, func(i, j int) bool { return naturalLess(vars[i].Name, vars[j].Name) })
}

// checkStopsAgainstReference installs a handler that compares every
// stop's threads with referenceThreads and answers with script's
// command for the n-th stop (0-based). It returns the running count of
// stops checked.
func checkStopsAgainstReference(t *testing.T, rt *Runtime, script func(ev *StopEvent, n int) Command) *int {
	t.Helper()
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		want := referenceThreads(rt, ev)
		if !reflect.DeepEqual(ev.Threads, want) {
			t.Fatalf("stop %d (t=%d %s:%d reverse=%v): threads differ from the reference\n got %+v\nwant %+v",
				stops, ev.Time, ev.File, ev.Line, ev.Reverse, ev.Threads, want)
		}
		stops++
		return script(ev, stops-1)
	})
	return &stops
}

// recordSoCTrace runs vvadd on the one-core SoC for cycles cycles under
// the VCD recorder and returns the replay engine over the recording
// and the machine's symbol table.
func recordSoCTrace(t *testing.T, cycles int) (*replay.Engine, *riscv.Machine) {
	t.Helper()
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		t.Fatal(err)
	}
	var w *riscv.Workload
	for _, cand := range riscv.Workloads() {
		if cand.Name == "vvadd" {
			w = cand
		}
	}
	if w == nil {
		t.Fatal("no vvadd workload")
	}
	var buf bytes.Buffer
	rec := vcd.NewRecorder(m.Sim, &buf)
	if err := m.Load(0, w.Prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	m.Sim.Run(cycles)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := vcd.ParseStore(&buf, vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return replay.NewStore(st), m
}

// TestFramePlansMatchReference steps forward and backward over a
// recorded one-core SoC trace and compares every stop's frames with
// the per-stop reconstruction: names, RTL paths, widths, values,
// unknown marks and order. Stepping stops at every enabled statement,
// so the walk builds plans for most of core0's statements and reuses
// each across cycles and directions.
func TestFramePlansMatchReference(t *testing.T) {
	eng, m := recordSoCTrace(t, 120)
	rt, err := New(eng, m.Table)
	if err != nil {
		t.Fatal(err)
	}
	// Past reset and into the kernel's loop first, so frames carry the
	// program's values; then 400 forward steps, 300 reverse steps
	// (across cycle boundaries), 200 forward again, and run out.
	for eng.Time() < 60 && eng.StepForward() {
	}
	stops := checkStopsAgainstReference(t, rt, func(_ *StopEvent, n int) Command {
		switch {
		case n < 400:
			return CmdStep
		case n < 700:
			return CmdReverseStep
		case n < 900:
			return CmdStep
		}
		return CmdContinue
	})
	rt.InterruptNext()
	for eng.StepForward() && *stops < 900 {
	}
	if *stops < 900 {
		t.Fatalf("only %d stops before the trace ended", *stops)
	}
	if n := len(rt.plans.locals); n < 20 {
		t.Fatalf("walk planned %d statements, want a broad sample", n)
	}
}

// TestFramePlansDualCore repeats the differential on the two-instance
// design: one statement hits in both cores, and each instance keeps its
// own generator list.
func TestFramePlansDualCore(t *testing.T) {
	s, table, accLine := buildDualCoreDesign(t)
	rt, err := New(vpi.NewSimBackend(s), table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", accLine, ""); err != nil {
		t.Fatal(err)
	}
	var last *StopEvent
	stops := checkStopsAgainstReference(t, rt, func(ev *StopEvent, _ int) Command {
		last = ev
		return CmdContinue
	})
	s.Reset("Top.reset", 1)
	s.Poke("Top.x", 3) // odd -> both cores enabled
	s.Run(5)
	if *stops != 5 || last == nil || len(last.Threads) != 2 {
		t.Fatalf("stops = %d, last = %+v; want 5 stops of two threads", *stops, last)
	}
	for _, th := range last.Threads {
		if len(th.Generator) == 0 {
			t.Fatalf("%s has no generator variables", th.Instance)
		}
		for _, v := range th.Generator {
			if !strings.HasPrefix(v.RTL, th.Instance+".") {
				t.Fatalf("%s generator variable %s reads %s, another instance's signal", th.Instance, v.Name, v.RTL)
			}
		}
	}
	if n := len(rt.plans.generator); n != 2 {
		t.Fatalf("generator plans = %d, want one per instance", n)
	}
}

// buildVectorDesign: a twelve-element vector wire whose elements all
// stay live, so frames list v[0]..v[11] and their natural order (v[2]
// before v[10]) differs from the lexicographic one. Returns the line
// of the enabled update.
func buildVectorDesign(t *testing.T) (*sim.Simulator, *symtab.Table, int) {
	t.Helper()
	c := generator.NewCircuit("Vec")
	m := c.NewModule("Vec")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	v := m.Wire("v", ir.Vec{Elem: ir.UIntType(8), Len: 12})
	acc := count
	for i := 0; i < 12; i++ {
		v.Idx(i).Set(count.AddMod(m.Lit(uint64(i), 8)))
		acc = acc.Xor(v.Idx(i))
	}
	out.Set(acc)
	var line int
	m.When(en, func() {
		count.Set(v.Idx(11))
		line = hereLine() - 1
	})
	s, table := elaborateDesign(t, c, false)
	return s, table, line
}

// TestFramePlanValuesFresh stops at one statement in three cycles: the
// plan caches the frame's layout, never its values, and each stop
// matches the reference, vector elements in natural order included.
func TestFramePlanValuesFresh(t *testing.T) {
	s, table, line := buildVectorDesign(t)
	rt, err := New(vpi.NewSimBackend(s), table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("frames_test.go", line, ""); err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	stops := checkStopsAgainstReference(t, rt, func(ev *StopEvent, _ int) Command {
		vals := map[string]uint64{}
		for _, v := range ev.Threads[0].Locals {
			vals[v.Name] = v.Value
		}
		if vals["v[10]"] != (vals["count"]+10)&0xff {
			t.Fatalf("t=%d: v[10] = %d with count = %d", ev.Time, vals["v[10]"], vals["count"])
		}
		seen = append(seen, vals["v[10]"])
		return CmdContinue
	})
	s.Reset("Vec.reset", 1)
	s.Poke("Vec.en", 1)
	s.Run(3)
	if *stops != 3 || seen[0] == seen[1] || seen[1] == seen[2] {
		t.Fatalf("v[10] at %d stops = %v, want a new value at each of 3", *stops, seen)
	}
	if len(rt.plans.locals) != 1 {
		t.Fatalf("locals plans = %d, want the one statement's", len(rt.plans.locals))
	}
}

// widestStop returns the SoC core0 statement whose frame has the most
// variables (locals plus generator variables) and its group.
func widestStop(t testing.TB, rt *Runtime) (*group, *insertedBP, int, int) {
	var bestG *group
	var best *insertedBP
	bestL, bestGen := 0, 0
	instID, ok := rt.table.InstanceIDByName("SoC.core0")
	if !ok {
		t.Fatal("no SoC.core0 instance")
	}
	nGen := len(rt.table.GeneratorVars(instID))
	for _, g := range rt.allGroups {
		for _, cand := range g.bps {
			if cand.bp.InstanceName != "SoC.core0" {
				continue
			}
			if n := len(rt.table.ScopeVars(cand.bp.ID)); best == nil || n > bestL {
				bestG, best, bestL, bestGen = g, cand, n, nGen
			}
		}
	}
	if best == nil {
		t.Fatal("no SoC.core0 statement")
	}
	return bestG, best, bestL, bestGen
}

// TestBuildEventAllocs pins the warm stop's cost at the widest core0
// frame: reading the frame allocates the event, its one thread and the
// two variable lists, not the symbol-table scans and sorts the
// per-stop reconstruction paid.
func TestBuildEventAllocs(t *testing.T) {
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(vpi.NewSimBackend(m.Sim), m.Table)
	if err != nil {
		t.Fatal(err)
	}
	g, ibp, nLocals, nGen := widestStop(t, rt)
	hits := []*insertedBP{ibp}
	ev := rt.buildEvent(g, hits, 0, false, false) // the first stop plans
	if len(ev.Threads) != 1 || len(ev.Threads[0].Locals) != nLocals || len(ev.Threads[0].Generator) != nGen {
		t.Fatalf("frame = %d threads, want one of %d locals + %d generator variables", len(ev.Threads), nLocals, nGen)
	}
	allocs := testing.AllocsPerRun(100, func() { rt.buildEvent(g, hits, 0, false, false) })
	t.Logf("%s:%d: %d locals + %d generator variables, %.0f allocs per stop",
		g.file, g.line, nLocals, nGen, allocs)
	if allocs >= 20 {
		t.Fatalf("buildEvent allocates %.0f times per warm stop, want < 20", allocs)
	}
}

// sameStructure reports whether two trees match node for node: names,
// leaf identity (the same input variable, not an equal one) and where
// children are absent.
func sameStructure(a, b []StructuredVar) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Leaf != b[i].Leaf || !sameStructure(a[i].Children, b[i].Children) {
			return false
		}
	}
	return true
}

// TestStructureMatchesTree pins Structure's flat shortcut against the
// tree it skips: flat lists, the SoC's widest frame among them, must
// come back exactly as structureTree builds them, and dotted lists must
// still take the tree.
func TestStructureMatchesTree(t *testing.T) {
	vars := func(names ...string) []Variable {
		out := make([]Variable, len(names))
		for i, n := range names {
			out[i] = Variable{Name: n, Value: uint64(i)}
		}
		return out
	}
	cases := map[string][]Variable{
		"empty":             nil,
		"flat":              vars("pc", "count", "a", "rd", "valid"),
		"flat vector":       vars("v[10]", "v[2]", "v[0]", "v[1]", "v"),
		"flat duplicates":   vars("b", "a", "b", "a", "c"),
		"flat siblings":     vars("a_c", "a-c", "ab", "a", "a10", "a9", "A"),
		"dotted bundles":    vars("io.out.bits", "io.out.valid", "io.in", "count", "io.out.ready"),
		"dotted vector":     vars("v[10].bits", "v[2].bits", "v[0].bits", "v[2].valid", "io.valid"),
		"natural siblings":  vars("a.b", "a-c", "a_c", "a", "a.c", "ab"),
		"leaf and parent":   vars("io", "io.x", "io.x.y", "io.x"),
		"dotted duplicates": vars("io.a", "io.b", "io.a", "z"),
		"empty segments":    vars("a..b", ".x", "x.", "", "a.b"),
	}
	// The widest core0 frame of the SoC, both of its lists.
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(vpi.NewSimBackend(m.Sim), m.Table)
	if err != nil {
		t.Fatal(err)
	}
	g, ibp, _, _ := widestStop(t, rt)
	th := rt.buildEvent(g, []*insertedBP{ibp}, 0, false, false).Threads[0]
	cases["soc locals"], cases["soc generator"] = th.Locals, th.Generator

	for name, in := range cases {
		got, want := Structure(in), structureTree(in)
		if !sameStructure(got, want) {
			t.Errorf("%s: Structure differs from structureTree\n got %+v\nwant %+v", name, got, want)
		}
	}
}
