package rtl

import (
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
)

func compileCounter(t *testing.T) *ir.Circuit {
	t.Helper()
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
	})
	out.Set(count)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return comp.Circuit
}

func TestElaborateCounter(t *testing.T) {
	nl, err := Elaborate(compileCounter(t))
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	if nl.Top != "Counter" {
		t.Fatalf("top = %s", nl.Top)
	}
	if _, ok := nl.Signal("Counter.count"); !ok {
		t.Fatalf("missing register signal; have %v", nl.SignalNames())
	}
	if len(nl.Regs) != 1 {
		t.Fatalf("regs = %d", len(nl.Regs))
	}
	if len(nl.Inputs) != 3 { // clock, reset, en
		t.Fatalf("inputs = %d", len(nl.Inputs))
	}
	sig, _ := nl.Signal("Counter.count")
	if sig.Kind != KindReg || sig.Width != 8 {
		t.Fatalf("count signal = %+v", sig)
	}
}

func TestElaborateHierarchy(t *testing.T) {
	c := generator.NewCircuit("Top")
	child := c.NewModule("Child")
	ci := child.Input("in", ir.UIntType(8))
	co := child.Output("out", ir.UIntType(8))
	co.Set(ci.AddMod(child.Lit(1, 8)))

	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	u0 := top.Instance("u0", child)
	u1 := top.Instance("u1", child)
	u0.IO("in").Set(x)
	u1.IO("in").Set(u0.IO("out"))
	y.Set(u1.IO("out"))

	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := Elaborate(comp.Circuit)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	// Hierarchy tree preserved.
	if nl.Hierarchy.Path != "Top" || len(nl.Hierarchy.Children) != 2 {
		t.Fatalf("hierarchy = %+v", nl.Hierarchy)
	}
	if nl.Hierarchy.FindChild("u0") == nil || nl.Hierarchy.FindChild("u1") == nil {
		t.Fatal("children missing")
	}
	if nl.Hierarchy.FindChild("u0").Module != "Child" {
		t.Fatalf("child module = %s", nl.Hierarchy.FindChild("u0").Module)
	}
	if nl.Hierarchy.FindChild("ghost") != nil {
		t.Fatal("found nonexistent child")
	}
	// Child signals exist with full paths.
	for _, name := range []string{"Top.u0.in", "Top.u0.out", "Top.u1.in", "Top.u1.out"} {
		if _, ok := nl.Signal(name); !ok {
			t.Fatalf("missing %s; have %v", name, nl.SignalNames())
		}
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	circ := &ir.Circuit{Main: "Loop", Modules: []*ir.Module{{
		Name: "Loop",
		Ports: []ir.Port{
			{Name: "clock", Dir: ir.Input, Tpe: ir.ClockType()},
			{Name: "out", Dir: ir.Output, Tpe: ir.UIntType(1)},
		},
		Body: []ir.Stmt{
			&ir.DefNode{Name: "a", Value: ir.NewPrim(ir.OpNot, ir.Ref{Name: "b"})},
			&ir.DefNode{Name: "b", Value: ir.NewPrim(ir.OpNot, ir.Ref{Name: "a"})},
			&ir.Connect{Loc: ir.Ref{Name: "out"}, Value: ir.Ref{Name: "a"}},
		},
	}}}
	if _, err := Elaborate(circ); err == nil {
		t.Fatal("combinational loop accepted")
	} else if !strings.Contains(err.Error(), "loop") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDoubleAssignDetected(t *testing.T) {
	circ := &ir.Circuit{Main: "D", Modules: []*ir.Module{{
		Name: "D",
		Ports: []ir.Port{
			{Name: "clock", Dir: ir.Input, Tpe: ir.ClockType()},
			{Name: "out", Dir: ir.Output, Tpe: ir.UIntType(1)},
		},
		Body: []ir.Stmt{
			&ir.Connect{Loc: ir.Ref{Name: "out"}, Value: ir.ConstUInt(0, 1)},
			&ir.Connect{Loc: ir.Ref{Name: "out"}, Value: ir.ConstUInt(1, 1)},
		},
	}}}
	if _, err := Elaborate(circ); err == nil {
		t.Fatal("double assignment accepted")
	}
}

func TestVerilogEmission(t *testing.T) {
	circ := compileCounter(t)
	v, err := VerilogString(circ)
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	for _, want := range []string{
		"module Counter(",
		"input clock",
		"reg [7:0] count;",
		"always @(posedge clock)",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Fatalf("verilog missing %q:\n%s", want, v)
		}
	}
	// The generated RTL contains compiler temporaries — the Listing 4
	// "design intent is gone" property.
	if !strings.Contains(v, "_GEN_") && !strings.Contains(v, "count_0") {
		t.Fatalf("expected generated temporaries in:\n%s", v)
	}
}

func TestWalkHierarchy(t *testing.T) {
	nl, err := Elaborate(compileCounter(t))
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	nl.Hierarchy.Walk(func(n *InstanceNode) { visited++ })
	if visited != 1 {
		t.Fatalf("visited = %d", visited)
	}
	if len(nl.Hierarchy.Signals) == 0 {
		t.Fatal("no signals recorded on hierarchy node")
	}
	if nl.Stats() == "" {
		t.Fatal("empty stats")
	}
}

// TestElaborateRejectsWideResults: a shl or cat whose result is wider
// than 64 bits passes passes.Compile, but eval.Prim cannot compute it,
// so Elaborate rejects the design and names the signal instead of the
// simulator panicking at its first settle. The wide results eval.Prim
// does compute (mul, add, dshl) still elaborate.
func TestElaborateRejectsWideResults(t *testing.T) {
	build := func(debug bool, wide func(m *generator.ModuleBuilder, a *generator.Signal) *generator.Signal) (*Netlist, error) {
		c := generator.NewCircuit("Top")
		m := c.NewModule("Top")
		a := m.Input("a", ir.UIntType(10))
		n := m.Node("wide", wide(m, a))
		m.Output("out", ir.UIntType(n.Width())).Set(n)
		comp, err := passes.Compile(c.MustBuild(), debug)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return Elaborate(comp.Circuit)
	}
	for _, debug := range []bool{false, true} {
		for name, wide := range map[string]func(*generator.ModuleBuilder, *generator.Signal) *generator.Signal{
			"shl": func(_ *generator.ModuleBuilder, a *generator.Signal) *generator.Signal { return a.Shl(60) },
			"cat": func(m *generator.ModuleBuilder, a *generator.Signal) *generator.Signal {
				return a.Cat(m.Input("b", ir.UIntType(60)))
			},
		} {
			_, err := build(debug, wide)
			if err == nil || !strings.Contains(err.Error(), "Top.wide") || !strings.Contains(err.Error(), "exceeds 64") {
				t.Fatalf("%s (debug=%v): Elaborate error = %v, want one naming Top.wide", name, debug, err)
			}
		}
		nl, err := build(debug, func(m *generator.ModuleBuilder, a *generator.Signal) *generator.Signal {
			return a.Pad(64).Mul(a)
		})
		if err != nil {
			t.Fatalf("74-bit mul (debug=%v): %v", debug, err)
		}
		if sig, _ := nl.Signal("Top.out"); sig.Width != 74 {
			t.Fatalf("mul width = %d, want 74", sig.Width)
		}
	}
}
