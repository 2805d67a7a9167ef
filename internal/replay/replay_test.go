package replay

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// makeVCD records the counter design for 10 cycles and returns the raw
// VCD text, shared by the engine tests.
func makeVCD(t testing.TB) []byte {
	t.Helper()
	return recordLive(t, counterNetlist(t), countTen).vcd
}

// counterNetlist elaborates an 8-bit counter that counts while en is
// high.
func counterNetlist(t testing.TB) *rtl.Netlist {
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
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// makeEngine replays the counter recording with default options.
func makeEngine(t testing.TB) *Engine {
	t.Helper()
	st, err := vcd.ParseStore(bytes.NewReader(makeVCD(t)), vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(st)
}

func TestReplayForwardMatchesRecording(t *testing.T) {
	e := makeEngine(t)
	// Walk forward; count increases by one per enabled cycle.
	e.SetTime(2)
	v2, err := e.GetValue("Counter.count")
	if err != nil {
		t.Fatal(err)
	}
	e.SetTime(5)
	v5, _ := e.GetValue("Counter.count")
	if v5.Bits-v2.Bits != 3 {
		t.Fatalf("count delta = %d, want 3 (v2=%d v5=%d)", v5.Bits-v2.Bits, v2.Bits, v5.Bits)
	}
}

func TestReverseTime(t *testing.T) {
	e := makeEngine(t)
	e.SetTime(8)
	v8, _ := e.GetValue("Counter.count")
	if !e.StepBackward() {
		t.Fatal("step backward failed")
	}
	v7, _ := e.GetValue("Counter.count")
	if v7.Bits != v8.Bits-1 {
		t.Fatalf("reverse step: %d -> %d", v8.Bits, v7.Bits)
	}
	// Rewind to zero.
	e.SetTime(0)
	if e.StepBackward() {
		t.Fatal("stepped before time zero")
	}
	v0, _ := e.GetValue("Counter.count")
	if v0.Bits != 0 {
		t.Fatalf("count at 0 = %d", v0.Bits)
	}
}

func TestStepForwardStopsAtEnd(t *testing.T) {
	e := makeEngine(t)
	e.SetTime(e.MaxTime())
	if e.StepForward() {
		t.Fatal("stepped past end of trace")
	}
	if err := e.SetTime(e.MaxTime() + 1); err == nil {
		t.Fatal("SetTime past end accepted")
	}
}

func TestCallbacksFireOnSteps(t *testing.T) {
	e := makeEngine(t)
	var times []uint64
	id := e.OnClockEdge(func(tm uint64) { times = append(times, tm) })
	e.Run(3)
	e.StepBackward()
	if len(times) != 4 {
		t.Fatalf("callbacks fired %d times, want 4", len(times))
	}
	if times[3] != times[2]-1 {
		t.Fatalf("reverse callback time: %v", times)
	}
	e.RemoveCallback(id)
	e.Run(1)
	if len(times) != 4 {
		t.Fatal("callback fired after removal")
	}
}

// TestRemoveCallbackDuringDispatch removes a callback from inside the
// edge being fired (what a debugger detaching from its own stop
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
			e := makeEngine(t)
			fired := map[string]int{}
			ids := map[string]int{}
			for _, name := range []string{"a", "b", "c"} {
				ids[name] = e.OnClockEdge(func(uint64) {
					fired[name]++
					if name == "a" && fired["a"] == 1 {
						e.RemoveCallback(ids[tc.victim])
					}
				})
			}
			e.StepForward()
			if fmt.Sprint(fired) != fmt.Sprint(tc.first) {
				t.Fatalf("removal edge fired %v, want %v", fired, tc.first)
			}
			e.StepForward()
			if fmt.Sprint(fired) != fmt.Sprint(tc.second) {
				t.Fatalf("next edge fired %v, want %v", fired, tc.second)
			}
		})
	}
}

func TestSetValueUnsupported(t *testing.T) {
	e := makeEngine(t)
	err := e.SetValue("Counter.count", 1)
	if !errors.Is(err, vpi.ErrNotSupported) {
		t.Fatalf("err = %v, want ErrNotSupported", err)
	}
}

func TestUnknownSignal(t *testing.T) {
	e := makeEngine(t)
	if _, err := e.GetValue("Counter.ghost"); err == nil {
		t.Fatal("unknown signal accepted")
	}
}

func TestHierarchyAndClock(t *testing.T) {
	e := makeEngine(t)
	if e.Hierarchy() == nil || e.Hierarchy().Name != "Counter" {
		t.Fatalf("hierarchy = %+v", e.Hierarchy())
	}
	if e.ClockName() != "Counter.clock" {
		t.Fatalf("clock = %s", e.ClockName())
	}
}

// fourStateTrace holds a known bit, a known byte, a 72-bit bus and a
// nibble that carries x/z bits at t=0 and t=4 only.
const fourStateTrace = `$scope module Top $end
$var wire 1 ! a $end
$var wire 8 " b $end
$var wire 72 # w $end
$var wire 4 $ q $end
$upscope $end
$enddefinitions $end
#0
0!
b101 "
b1 #
b1x0z $
#2
1!
b110 "
b100000000000000000000000000000000000000000000000000000000000000000000011 #
b1010 $
#4
b1z $
#6
b11 $
`

// TestEngineHandles pins the handle surface on the replay backend: an
// unknown path does not resolve; a handle's type is the trace's
// declared width, the 72-bit bus included, and unsigned; the batched
// read fills every slot, and only the x/z nibble (at the times it
// holds x/z) and the 72-bit bus come back not ok; known slots match
// GetValue's bits; and the read allocates nothing, over materialized
// timelines and over the checkpointed replay state alike.
func TestEngineHandles(t *testing.T) {
	paths := []string{"Top.a", "Top.b", "Top.w", "Top.q"}
	widths := []int{1, 8, 72, 4}
	for _, materialize := range []bool{false, true} {
		eng := storeEngine(t, []byte(fourStateTrace), 2)
		if _, _, err := eng.Resolve("Top.nope"); err == nil {
			t.Fatal("unknown signal resolved")
		}
		if materialize {
			eng.Prefetch(paths)
		}
		hs := make([]vpi.Handle, len(paths)+1)
		for i, p := range paths {
			h, typ, err := eng.Resolve(p)
			if err != nil {
				t.Fatal(err)
			}
			if typ != (eval.Value{Width: widths[i]}) {
				t.Fatalf("%s resolved with type %+v, want %d bits unsigned", p, typ, widths[i])
			}
			hs[i] = h
		}
		hs[len(paths)] = vpi.NoHandle
		dst := make([]uint64, len(hs))
		ok := make([]bool, len(hs))
		for tm := uint64(0); tm <= eng.MaxTime(); tm++ {
			eng.SetTime(tm)
			eng.ReadValues(hs, dst, ok)
			for i, p := range paths {
				want, err := eng.GetValue(p)
				fourState := errors.Is(err, vpi.ErrFourState)
				if err != nil && !fourState {
					t.Fatal(err)
				}
				if ok[i] == fourState || (ok[i] && (dst[i] != want.Bits || want.Width != widths[i])) {
					t.Fatalf("materialized=%v %s@%d by handle = %v (ok %v), by path %v (%v)",
						materialize, p, tm, dst[i], ok[i], want, err)
				}
			}
			if ok[2] {
				t.Fatalf("the 72-bit bus read as ok at %d", tm)
			}
			if xz := tm < 2 || tm == 4 || tm == 5; ok[3] == xz {
				t.Fatalf("Top.q@%d ok = %v", tm, ok[3])
			}
			if ok[len(paths)] {
				t.Fatal("NoHandle read as ok")
			}
		}
		eng.SetTime(3)
		if allocs := testing.AllocsPerRun(100, func() { eng.ReadValues(hs, dst, ok) }); allocs != 0 {
			t.Fatalf("materialized=%v: ReadValues allocated %.1f per call, want 0", materialize, allocs)
		}
	}
}
