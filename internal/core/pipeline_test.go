package core

import (
	"fmt"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vpi"
)

// TestCompiledBreakpointStops checks end-to-end stop behavior through
// the batched scheduler: a conditional breakpoint fires exactly when
// its condition holds.
func TestCompiledBreakpointStops(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 5"); err != nil {
		t.Fatal(err)
	}
	var hits []uint64
	rt.SetHandler(func(ev *StopEvent) Command {
		for _, th := range ev.Threads {
			for _, v := range th.Locals {
				if v.Name == "count" {
					hits = append(hits, v.Value)
				}
			}
		}
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(20)
	if len(hits) != 1 || hits[0] != 5 {
		t.Fatalf("hits = %v, want [5]", hits)
	}
}

// buildManyInstances makes a design with n leaf instances all hitting
// the same conditional source line, plus the armed runtime.
func buildManyInstances(t *testing.T, n int) (*sim.Simulator, *Runtime) {
	t.Helper()
	c := generator.NewCircuit("Top")
	child := c.NewModule("Leaf")
	din := child.Input("d", ir.UIntType(8))
	q := child.Output("q", ir.UIntType(8))
	acc := child.RegInit("acc", ir.UIntType(8), child.Lit(0, 8))
	child.When(din.Bit(0), func() {
		acc.Set(acc.AddMod(din))
	})
	q.Set(acc)
	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	sum := top.Wire("s", ir.UIntType(8))
	sum.Set(top.Lit(0, 8))
	for i := 0; i < n; i++ {
		u := top.Instance(fmt.Sprintf("u%02d", i), child)
		u.IO("d").Set(x)
		sum.Set(sum.AddMod(u.IO("q")))
	}
	y.Set(sum)
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
	rt, err := New(vpi.NewSimBackend(s), table)
	if err != nil {
		t.Fatal(err)
	}
	var file string
	var line int
	for _, f := range table.Files() {
		for _, l := range table.Lines(f) {
			for _, bp := range table.BreakpointsAt(f, l) {
				if bp.Enable != "" {
					file, line = f, l
				}
			}
		}
	}
	if _, err := rt.AddBreakpoint(file, line, ""); err != nil {
		t.Fatal(err)
	}
	return s, rt
}

// TestManyInstanceGroupEvaluation arms one breakpoint across many
// instances and checks every member evaluates (as one fused schedule)
// and stops as one multi-threaded event. 48 instances put the schedule
// above the 32-condition ranges the fused program was once split into.
func TestManyInstanceGroupEvaluation(t *testing.T) {
	const n = 48
	s, rt := buildManyInstances(t, n)
	threads := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		threads += len(ev.Threads)
		return CmdContinue
	})
	s.Poke("Top.x", 3) // odd: every instance's enable holds each cycle
	s.Run(4)
	if threads != 4*n {
		t.Fatalf("threads = %d, want %d", threads, 4*n)
	}
	evals, stops := rt.Stats()
	if evals == 0 || stops != 4 {
		t.Fatalf("stats = (%d evals, %d stops), want (>0, 4)", evals, stops)
	}
	if info, ok := rt.FuseInfo(); !ok || info.Conds != n {
		t.Fatalf("fused conds = %d (ok=%v), want %d", info.Conds, ok, n)
	}
}

// TestDetachFromHandlerMidEdge: a handler that calls Detach directly
// (instead of returning CmdDetach) and then continues ends the walk at
// that stop — the statement scheduled later in the same edge must not
// stop a runtime that is already detached.
func TestDetachFromHandlerMidEdge(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []int{d.defLine, d.incLine} {
		if _, err := rt.AddBreakpoint("core_test.go", line, ""); err != nil {
			t.Fatal(err)
		}
	}
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		rt.Detach()
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(3)
	if stops != 1 {
		t.Fatalf("stops = %d, want 1 (detached after first)", stops)
	}
}

// TestPrefetchInvalidatedAfterHandler: a value deposited while stopped
// must be visible to conditions evaluated later in the same edge.
func TestPrefetchInvalidatedAfterHandler(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	// defLine schedules before incLine within a cycle; poking count while
	// stopped at defLine must affect incLine's condition the same cycle.
	if _, err := rt.AddBreakpoint("core_test.go", d.defLine, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 77"); err != nil {
		t.Fatal(err)
	}
	sawInc := false
	rt.SetHandler(func(ev *StopEvent) Command {
		switch ev.Line {
		case d.defLine:
			if err := rt.Backend().SetValue("Counter.count", 77); err != nil {
				t.Fatalf("set value: %v", err)
			}
		case d.incLine:
			sawInc = true
		}
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(1)
	if !sawInc {
		t.Fatal("condition did not observe the deposited value: stale prefetch")
	}
}

// TestShortCircuitUnresolvableName: a condition whose short-circuited
// side names an unresolvable signal cannot fuse (the name has no
// prefetch slot) and must still hit when the deciding side holds —
// EvalBits never evaluates the dead side.
func TestShortCircuitUnresolvableName(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count >= 0 || no_such_signal"); err != nil {
		t.Fatal(err)
	}
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(3)
	if stops != 3 {
		t.Fatalf("stops = %d, want 3 (short-circuit past the bad name)", stops)
	}
}

// TestUnverifiedDepStaysOutOfBatchUnion pins the union-poisoning fix:
// one condition with a name that does not resolve must not force the
// whole prefetch into per-path fallback — the bad name gets slot -1,
// outside the union, and healthy breakpoints keep hitting.
func TestUnverifiedDepStaysOutOfBatchUnion(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "bogus_xyz > 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.defLine, "count == 2"); err != nil {
		t.Fatal(err)
	}
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(10)
	if stops != 1 {
		t.Fatalf("stops = %d, want 1 (healthy breakpoint unaffected)", stops)
	}
	for _, p := range rt.depUnion {
		if p == "bogus_xyz" {
			t.Fatalf("unresolved path %q leaked into the batch union %v", p, rt.depUnion)
		}
	}
	if len(rt.depUnion) == 0 {
		t.Fatal("union empty: batching disabled entirely")
	}
}

// TestWatchAndBreakpointResolveIdentically pins the satellite fix: a
// watch and a breakpoint condition naming the same instance variable
// must resolve to the same simulator path.
func TestWatchAndBreakpointResolveIdentically(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddWatch("Counter", "count"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 1"); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var bpPath string
	for _, ibp := range rt.inserted {
		if ibp.cond != nil && len(ibp.cond.paths) == 1 {
			bpPath = ibp.cond.paths[0]
		}
	}
	w := rt.watches[0].watched
	if len(w.paths) != 1 || bpPath == "" || w.paths[0] != bpPath {
		t.Fatalf("watch path %v != breakpoint path %q", w.paths, bpPath)
	}
}
