package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/eval"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
)

func elaborate(t *testing.T, c *generator.Circuit, debug bool) *rtl.Netlist {
	t.Helper()
	comp, err := passes.Compile(c.MustBuild(), debug)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return nl
}

func buildCounter() *generator.Circuit {
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
	})
	out.Set(count)
	return c
}

func TestCounterSimulation(t *testing.T) {
	nl := elaborate(t, buildCounter(), false)
	s := New(nl)
	if err := s.Reset("Counter.reset", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("Counter.en", 1); err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	v, err := s.Peek("Counter.count")
	if err != nil {
		t.Fatal(err)
	}
	if v.Bits != 5 {
		t.Fatalf("count = %d, want 5", v.Bits)
	}
	// Disable and check it holds.
	s.Poke("Counter.en", 0)
	s.Run(3)
	v, _ = s.Peek("Counter.count")
	if v.Bits != 5 {
		t.Fatalf("count after disable = %d, want 5", v.Bits)
	}
	// Output tracks the register.
	o, _ := s.Peek("Counter.out")
	s.Settle()
	o, _ = s.Peek("Counter.out")
	if o.Bits != 5 {
		t.Fatalf("out = %d", o.Bits)
	}
}

func TestCounterWraps(t *testing.T) {
	nl := elaborate(t, buildCounter(), false)
	s := New(nl)
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(256 + 3)
	v, _ := s.Peek("Counter.count")
	if v.Bits != 3 {
		t.Fatalf("count after wrap = %d, want 3", v.Bits)
	}
}

// The accumulator (paper Listing 1) computed in hardware: sum of odd
// inputs, combinationally.
func TestAccumulatorCombinational(t *testing.T) {
	c := generator.NewCircuit("Acc")
	m := c.NewModule("Acc")
	d0 := m.Input("data_0", ir.UIntType(8))
	d1 := m.Input("data_1", ir.UIntType(8))
	out := m.Output("out", ir.UIntType(8))
	sum := m.Wire("sum", ir.UIntType(8))
	sum.Set(m.Lit(0, 8))
	for _, d := range []*generator.Signal{d0, d1} {
		dd := d
		m.When(dd.Bit(0), func() {
			sum.Set(sum.AddMod(dd))
		})
	}
	out.Set(sum)
	nl := elaborate(t, c, false)
	s := New(nl)

	cases := []struct {
		d0, d1, want uint64
	}{
		{3, 5, 8},   // both odd
		{2, 5, 5},   // first even
		{4, 6, 0},   // both even
		{7, 0, 7},   // second zero (even)
		{255, 1, 0}, // 255+1 wraps to 0 in 8 bits
	}
	for _, tc := range cases {
		s.Poke("Acc.data_0", tc.d0)
		s.Poke("Acc.data_1", tc.d1)
		s.Settle()
		v, _ := s.Peek("Acc.out")
		if v.Bits != tc.want {
			t.Errorf("acc(%d, %d) = %d, want %d", tc.d0, tc.d1, v.Bits, tc.want)
		}
	}
}

// Property: the optimized and debug builds of the accumulator are
// observationally equivalent — optimization must never change
// simulation results.
func TestOptimizationEquivalenceProperty(t *testing.T) {
	build := func() *generator.Circuit {
		c := generator.NewCircuit("Acc")
		m := c.NewModule("Acc")
		d0 := m.Input("data_0", ir.UIntType(8))
		d1 := m.Input("data_1", ir.UIntType(8))
		out := m.Output("out", ir.UIntType(8))
		sum := m.Wire("sum", ir.UIntType(8))
		sum.Set(m.Lit(0, 8))
		for _, d := range []*generator.Signal{d0, d1} {
			dd := d
			m.When(dd.Bit(0), func() {
				sum.Set(sum.AddMod(dd))
			})
		}
		out.Set(sum)
		return c
	}
	opt := New(elaborate(t, build(), false))
	dbg := New(elaborate(t, build(), true))
	f := func(a, b uint8) bool {
		for _, s := range []*Simulator{opt, dbg} {
			s.Poke("Acc.data_0", uint64(a))
			s.Poke("Acc.data_1", uint64(b))
			s.Settle()
		}
		vo, _ := opt.Peek("Acc.out")
		vd, _ := dbg.Peek("Acc.out")
		return vo.Bits == vd.Bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemorySimulation(t *testing.T) {
	c := generator.NewCircuit("M")
	m := c.NewModule("M")
	addr := m.Input("addr", ir.UIntType(4))
	wdata := m.Input("wdata", ir.UIntType(32))
	wen := m.Input("wen", ir.UIntType(1))
	rdata := m.Output("rdata", ir.UIntType(32))
	mem := m.Mem("ram", ir.UIntType(32), 16)
	rdata.Set(mem.Read(addr))
	mem.Write(addr, wdata, wen)
	nl := elaborate(t, c, false)
	s := New(nl)

	// Write 0xDEAD to address 3.
	s.Poke("M.addr", 3)
	s.Poke("M.wdata", 0xDEAD)
	s.Poke("M.wen", 1)
	s.Step()
	s.Poke("M.wen", 0)
	s.Settle()
	v, _ := s.Peek("M.rdata")
	if v.Bits != 0xDEAD {
		t.Fatalf("rdata = %#x, want 0xDEAD", v.Bits)
	}
	// Direct memory access for testbench loading.
	if err := s.WriteMem("M.ram", 5, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadMem("M.ram", 5)
	if err != nil || got != 0xBEEF {
		t.Fatalf("ReadMem = %#x, %v", got, err)
	}
	s.Poke("M.addr", 5)
	s.Settle()
	v, _ = s.Peek("M.rdata")
	if v.Bits != 0xBEEF {
		t.Fatalf("rdata = %#x, want 0xBEEF", v.Bits)
	}
	// Out-of-range guarded.
	if err := s.WriteMem("M.ram", 99, 1); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if _, err := s.ReadMem("M.nope", 0); err == nil {
		t.Fatal("unknown memory accepted")
	}
}

func TestMemoryReadBeforeWriteSemantics(t *testing.T) {
	// A write in cycle N is visible at cycle N+1, not combinationally.
	c := generator.NewCircuit("RBW")
	m := c.NewModule("RBW")
	wen := m.Input("wen", ir.UIntType(1))
	rdata := m.Output("rdata", ir.UIntType(8))
	mem := m.Mem("ram", ir.UIntType(8), 4)
	rdata.Set(mem.Read(m.Lit(0, 2)))
	mem.Write(m.Lit(0, 2), m.Lit(0x42, 8), wen)
	nl := elaborate(t, c, false)
	s := New(nl)
	s.Poke("RBW.wen", 1)
	s.Settle()
	v, _ := s.Peek("RBW.rdata")
	if v.Bits != 0 {
		t.Fatalf("pre-edge read = %#x, want 0", v.Bits)
	}
	s.Step()
	s.Settle()
	v, _ = s.Peek("RBW.rdata")
	if v.Bits != 0x42 {
		t.Fatalf("post-edge read = %#x, want 0x42", v.Bits)
	}
}

func TestClockEdgeCallbackObservesStableState(t *testing.T) {
	nl := elaborate(t, buildCounter(), false)
	s := New(nl)
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	var seen []uint64
	id := s.OnClockEdge(func(time uint64) {
		// Callbacks observe the pre-edge register value: at the edge of
		// cycle N the register still holds the value committed at N-1.
		v, err := s.Peek("Counter.count")
		if err != nil {
			t.Errorf("peek in callback: %v", err)
		}
		seen = append(seen, v.Bits)
	})
	s.Run(4)
	if len(seen) != 4 {
		t.Fatalf("callback fired %d times", len(seen))
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("callback %d saw count=%d, want %d", i, v, i)
		}
	}
	s.RemoveCallback(id)
	s.Run(2)
	if len(seen) != 4 {
		t.Fatal("callback fired after removal")
	}
}

// TestRemoveCallbackDuringDispatch removes a callback from inside the
// edge being dispatched (what a debugger detaching from its own stop
// handler does): every other callback registered for that edge fires
// exactly once, and a removed one never fires again.
func TestRemoveCallbackDuringDispatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		victim string // the callback a removes on its first edge
		first  map[string]int
		second map[string]int
	}{
		{"self", "a", map[string]int{"a": 1, "b": 1, "c": 1}, map[string]int{"a": 1, "b": 2, "c": 2}},
		{"later", "b", map[string]int{"a": 1, "c": 1}, map[string]int{"a": 2, "c": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(elaborate(t, buildCounter(), false))
			fired := map[string]int{}
			ids := map[string]int{}
			for _, name := range []string{"a", "b", "c"} {
				ids[name] = s.OnClockEdge(func(uint64) {
					fired[name]++
					if name == "a" && fired["a"] == 1 {
						s.RemoveCallback(ids[tc.victim])
					}
				})
			}
			s.Step()
			if fmt.Sprint(fired) != fmt.Sprint(tc.first) {
				t.Fatalf("removal edge fired %v, want %v", fired, tc.first)
			}
			s.Step()
			if fmt.Sprint(fired) != fmt.Sprint(tc.second) {
				t.Fatalf("next edge fired %v, want %v", fired, tc.second)
			}
		})
	}
}

func TestCallbackTimeAdvances(t *testing.T) {
	nl := elaborate(t, buildCounter(), false)
	s := New(nl)
	var times []uint64
	s.OnClockEdge(func(tm uint64) { times = append(times, tm) })
	s.Run(3)
	if len(times) != 3 || times[0] != 0 || times[2] != 2 {
		t.Fatalf("times = %v", times)
	}
	if s.Time() != 3 {
		t.Fatalf("sim time = %d", s.Time())
	}
}

func TestOnChangeHook(t *testing.T) {
	nl := elaborate(t, buildCounter(), false)
	s := New(nl)
	changes := map[string]int{}
	s.OnChange(func(sig *rtl.Signal, v eval.Value) {
		changes[sig.Name]++
	})
	// Initial values reported for every signal.
	if changes["Counter.count"] != 1 {
		t.Fatalf("initial change report = %v", changes)
	}
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(3)
	// count changes every cycle while enabled.
	if changes["Counter.count"] < 3 {
		t.Fatalf("count changes = %d, want >= 3", changes["Counter.count"])
	}
}
