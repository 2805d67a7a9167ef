package core

import (
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vpi"
)

// TestDebugInsideForeignTestbench is the §3.4 scenario end to end: the
// generated IP is compiled on its own (the symbol table only knows its
// relative hierarchy), then instantiated inside a hand-written
// testbench the generator never saw. hgdb must locate the IP by
// instance-name matching and remap every breakpoint, frame variable,
// and enable condition through the testbench prefix.
func TestDebugInsideForeignTestbench(t *testing.T) {
	// --- The generated IP: symbols extracted from THIS circuit. ---
	buildIP := func() (*ir.Circuit, *symtab.Table, int) {
		c := generator.NewCircuit("Filter")
		m := c.NewModule("Filter")
		din := m.Input("din", ir.UIntType(8))
		dout := m.Output("dout", ir.UIntType(8))
		accum := m.RegInit("accum", ir.UIntType(8), m.Lit(0, 8))
		var line int
		m.When(din.Gt(m.Lit(100, 8)), func() {
			accum.Set(accum.AddMod(m.Lit(1, 8)))
			line = hereLine() - 1
		})
		dout.Set(accum)
		comp, err := passes.Compile(c.MustBuild(), false)
		if err != nil {
			t.Fatal(err)
		}
		table, err := symtab.Build(comp)
		if err != nil {
			t.Fatal(err)
		}
		return comp.Circuit, table, line
	}
	ipCirc, table, accLine := buildIP()

	// --- The foreign testbench: wraps the lowered IP two levels deep
	// under a different instance name ("dut"). Built directly in IR, as
	// an externally-supplied Verilog testbench would be. ---
	ipMod := ipCirc.Module("Filter")
	wrapper := &ir.Module{
		Name: "Wrapper",
		Ports: []ir.Port{
			{Name: "clock", Dir: ir.Input, Tpe: ir.ClockType()},
			{Name: "reset", Dir: ir.Input, Tpe: ir.ResetType()},
			{Name: "in", Dir: ir.Input, Tpe: ir.UIntType(8)},
			{Name: "out", Dir: ir.Output, Tpe: ir.UIntType(8)},
		},
		Body: []ir.Stmt{
			&ir.DefInstance{Name: "dut", Module: "Filter"},
			&ir.Connect{Loc: ir.SubField{E: ir.Ref{Name: "dut"}, Name: "clock"}, Value: ir.Ref{Name: "clock"}},
			&ir.Connect{Loc: ir.SubField{E: ir.Ref{Name: "dut"}, Name: "reset"}, Value: ir.Ref{Name: "reset"}},
			&ir.Connect{Loc: ir.SubField{E: ir.Ref{Name: "dut"}, Name: "din"}, Value: ir.Ref{Name: "in"}},
			&ir.Connect{Loc: ir.Ref{Name: "out"}, Value: ir.SubField{E: ir.Ref{Name: "dut"}, Name: "dout"}},
		},
	}
	harness := &ir.Module{
		Name: "TestHarness",
		Ports: []ir.Port{
			{Name: "clock", Dir: ir.Input, Tpe: ir.ClockType()},
			{Name: "reset", Dir: ir.Input, Tpe: ir.ResetType()},
			{Name: "stimulus", Dir: ir.Input, Tpe: ir.UIntType(8)},
			{Name: "observed", Dir: ir.Output, Tpe: ir.UIntType(8)},
		},
		Body: []ir.Stmt{
			&ir.DefInstance{Name: "wrap", Module: "Wrapper"},
			&ir.Connect{Loc: ir.SubField{E: ir.Ref{Name: "wrap"}, Name: "clock"}, Value: ir.Ref{Name: "clock"}},
			&ir.Connect{Loc: ir.SubField{E: ir.Ref{Name: "wrap"}, Name: "reset"}, Value: ir.Ref{Name: "reset"}},
			&ir.Connect{Loc: ir.SubField{E: ir.Ref{Name: "wrap"}, Name: "in"}, Value: ir.Ref{Name: "stimulus"}},
			&ir.Connect{Loc: ir.Ref{Name: "observed"}, Value: ir.SubField{E: ir.Ref{Name: "wrap"}, Name: "out"}},
		},
	}
	full := &ir.Circuit{Main: "TestHarness", Modules: []*ir.Module{harness, wrapper, ipMod}}
	nl, err := rtl.Elaborate(full)
	if err != nil {
		t.Fatalf("elaborate testbench: %v", err)
	}
	s := sim.New(nl)

	// --- Attach hgdb: the runtime must find Filter at
	// TestHarness.wrap.dut via module-name matching. ---
	rt, err := New(vpi.NewSimBackend(s), table)
	if err != nil {
		t.Fatalf("runtime in testbench: %v", err)
	}
	if rt.Remap().Prefix() != "TestHarness.wrap.dut" {
		t.Fatalf("remap prefix = %s", rt.Remap().Prefix())
	}

	if _, err := rt.AddBreakpoint("testbench_test.go", accLine, "accum == 2"); err != nil {
		t.Fatal(err)
	}
	var stopVals []uint64
	rt.SetHandler(func(ev *StopEvent) Command {
		for _, v := range ev.Threads[0].Locals {
			if v.Name == "accum" {
				stopVals = append(stopVals, v.Value)
				// Frame variables must carry full testbench paths.
				if v.RTL != "TestHarness.wrap.dut.accum" {
					t.Errorf("frame RTL path = %s", v.RTL)
				}
			}
		}
		return CmdContinue
	})

	s.Reset("TestHarness.reset", 1)
	s.Poke("TestHarness.stimulus", 200) // > 100: accumulate each cycle
	s.Run(6)

	if len(stopVals) != 1 || stopVals[0] != 2 {
		t.Fatalf("conditional stop values = %v, want [2]", stopVals)
	}
	// Watch expressions resolve through the remap too.
	v, err := rt.EvaluateBits("Filter", "accum")
	if err != nil {
		t.Fatalf("EvaluateBits through remap: %v", err)
	}
	if v.V0 != 6 || v.HasX() {
		t.Fatalf("accum after run = %s, want 6", v)
	}
}

// TestStepAcrossCycleBoundary: a forward step at the last statement of
// a cycle must stop at the first enabled statement of the next cycle.
func TestStepAcrossCycleBoundary(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddBreakpoint("core_test.go", d.incLine, "")
	var stops []struct {
		line int
		time uint64
	}
	count := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops = append(stops, struct {
			line int
			time uint64
		}{ev.Line, ev.Time})
		count++
		if count >= 4 {
			return CmdDetach
		}
		return CmdStep
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Reset("Counter.reset", 1)
	d.sim.Run(4)
	if len(stops) < 3 {
		t.Fatalf("stops = %v", stops)
	}
	// Some consecutive stop pair must span a cycle boundary.
	crossed := false
	for i := 1; i < len(stops); i++ {
		if stops[i].time > stops[i-1].time {
			crossed = true
		}
	}
	if !crossed {
		t.Fatalf("stepping never crossed a cycle: %v", stops)
	}
}

// TestInterruptNext: the asynchronous pause primitive stops at the next
// evaluated statement even with no breakpoints inserted.
func TestInterruptNext(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		return CmdDetach
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(3)
	if stops != 0 {
		t.Fatal("stopped without pause")
	}
	rt2, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	stops2 := 0
	rt2.SetHandler(func(ev *StopEvent) Command {
		if !ev.StepStop {
			t.Error("pause stop not marked as step stop")
		}
		stops2++
		return CmdContinue
	})
	rt2.InterruptNext()
	d.sim.Run(2)
	if stops2 == 0 {
		t.Fatal("pause produced no stop")
	}
}
