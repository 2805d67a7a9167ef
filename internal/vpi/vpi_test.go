package vpi

import (
	"errors"
	"testing"

	"repro/internal/eval"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
)

func makeBackend(t *testing.T) *SimBackend {
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
	// A signed view of the count, for the handle types.
	m.Output("signed", ir.SIntType(8)).Set(count.AsSInt())
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return NewSimBackend(sim.New(nl))
}

func TestFivePrimitives(t *testing.T) {
	b := makeBackend(t)

	// Primitive 1: get signal value.
	v, err := b.GetValue("Counter.count")
	if err != nil || v.Bits != 0 {
		t.Fatalf("GetValue = %v, %v", v, err)
	}
	if _, err := b.GetValue("Counter.nope"); err == nil {
		t.Fatal("unknown signal accepted")
	}

	// Primitive 2: design hierarchy and clock information.
	h := b.Hierarchy()
	if h == nil || h.Name != "Counter" {
		t.Fatalf("hierarchy = %+v", h)
	}
	if b.ClockName() != "Counter.clock" {
		t.Fatalf("clock = %s", b.ClockName())
	}

	// Primitive 3: clock-edge callbacks.
	fired := 0
	id := b.OnClockEdge(func(uint64) { fired++ })
	b.Sim.Run(3)
	if fired != 3 {
		t.Fatalf("callback fired %d times", fired)
	}
	b.RemoveCallback(id)
	b.Sim.Run(1)
	if fired != 3 {
		t.Fatal("callback fired after removal")
	}

	// Primitive 4: get (and for replay backends, set) time.
	if b.Time() != 4 {
		t.Fatalf("time = %d", b.Time())
	}
	if err := b.SetTime(0); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("live SetTime = %v, want ErrNotSupported", err)
	}

	// Primitive 5: set signal value.
	if err := b.SetValue("Counter.en", 1); err != nil {
		t.Fatal(err)
	}
	b.Sim.Run(2)
	v, _ = b.GetValue("Counter.count")
	if v.Bits != 2 {
		t.Fatalf("count after poke = %d", v.Bits)
	}
	// Register deposit path.
	if err := b.SetValue("Counter.count", 99); err != nil {
		t.Fatal(err)
	}
	v, _ = b.GetValue("Counter.count")
	if v.Bits != 99 {
		t.Fatalf("deposited count = %d", v.Bits)
	}
	if err := b.SetValue("Counter.ghost", 1); err == nil {
		t.Fatal("unknown signal poked")
	}
}

// TestHandles pins the handle surface on the live backend: an unknown
// path does not resolve; a handle's type is the signal's declared
// width and sign; the batched read fills every resolved slot (the
// simulator is two-state, so every one reads) with the bits GetValue
// returns; NoHandle reads as a failed slot; and the read allocates
// nothing.
func TestHandles(t *testing.T) {
	b := makeBackend(t)
	if _, _, err := b.Resolve("Counter.nope"); err == nil {
		t.Fatal("unknown signal resolved")
	}
	if err := b.SetValue("Counter.en", 1); err != nil {
		t.Fatal(err)
	}
	b.Sim.Run(3)
	paths := []string{"Counter.count", "Counter.en", "Counter.out", "Counter.reset", "Counter.signed"}
	types := []eval.Value{
		eval.Make(0, 8, false), eval.Make(0, 1, false), eval.Make(0, 8, false),
		eval.Make(0, 1, false), eval.Make(0, 8, true),
	}
	hs := make([]Handle, len(paths)+1)
	for i, p := range paths {
		h, typ, err := b.Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		if typ != types[i] {
			t.Fatalf("%s resolved with type %+v, want %+v", p, typ, types[i])
		}
		hs[i] = h
	}
	hs[len(paths)] = NoHandle
	dst := make([]uint64, len(hs))
	ok := make([]bool, len(hs))
	for i := range ok {
		ok[i] = true
	}
	if allocs := testing.AllocsPerRun(100, func() { b.ReadValues(hs, dst, ok) }); allocs != 0 {
		t.Fatalf("ReadValues allocated %.1f per call, want 0", allocs)
	}
	for i, p := range paths {
		want, err := b.GetValue(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ok[i] || dst[i] != want.Bits || want.Width != types[i].Width || want.Signed != types[i].Signed {
			t.Fatalf("%s by handle = %#x (ok %v), by path %+v", p, dst[i], ok[i], want)
		}
	}
	if ok[len(paths)] {
		t.Fatal("NoHandle read as ok")
	}
}
