package core

import (
	"testing"

	"repro/internal/vpi"
)

// These tests pin the forward, non-stepping walk's two shortcuts: it
// visits only the armed groups (rt.armed), and on an idle edge — every
// fused breakpoint condition parked, no watch on the fused program, no
// unfusable member armed — it visits none. Each is checked against the
// activity counters and against the SetExhaustiveEval reference.

// walkRun is one counter run's stops and the runtime that produced them.
type walkRun struct {
	stops []stopSig
	rt    *Runtime
}

// runWalk builds a fresh counter, lets arm configure the runtime and
// return the stop handler's extra action, then drives edges cycles,
// the reset edge first, with en held at en throughout.
func runWalk(t *testing.T, exhaustive bool, en uint64, edges int, arm func(d *testDesign, rt *Runtime) func(*StopEvent)) walkRun {
	t.Helper()
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetExhaustiveEval(exhaustive)
	onStop := arm(d, rt)
	var stops []stopSig
	rt.SetHandler(func(ev *StopEvent) Command {
		stops = append(stops, signature(ev))
		if onStop != nil {
			onStop(ev)
		}
		return CmdContinue
	})
	d.sim.Poke("Counter.en", en)
	d.sim.Reset("Counter.reset", 1)
	d.sim.Run(edges - 1)
	return walkRun{stops: stops, rt: rt}
}

// sameStops fails unless the default walk stopped exactly like the
// exhaustive reference.
func sameStops(t *testing.T, got, want []stopSig) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stop counts differ: walk=%d exhaustive=%d\nwalk:       %+v\nexhaustive: %+v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stop %d differs:\nwalk:       %+v\nexhaustive: %+v", i, got[i], want[i])
		}
	}
}

// TestIdleEdgeCountsArmedGroupsSkipped: once every armed condition is
// parked, each edge adds exactly the number of armed groups to the
// skipped counter and nothing to the evaluated counter or the
// evaluation count — the counts a walk over the parked groups would
// have produced.
func TestIdleEdgeCountsArmedGroupsSkipped(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []int{d.defLine, d.incLine} {
		if _, err := rt.AddBreakpoint("core_test.go", line, "count == 200"); err != nil {
			t.Fatal(err)
		}
	}
	rt.SetHandler(func(*StopEvent) Command { return CmdContinue })
	d.sim.Reset("Counter.reset", 1)
	d.sim.Run(3) // en low: the first edges evaluate, then both conditions park
	if len(rt.armed) != 2 {
		t.Fatalf("armed groups = %v, want 2", rt.armed)
	}
	if !rt.fused.idle() {
		t.Fatal("frozen counter with never-true conditions is not idle")
	}
	const edges = 10
	skipped0, evaluated0, _ := rt.ActivityStats()
	evals0, _ := rt.Stats()
	d.sim.Run(edges)
	skipped, evaluated, _ := rt.ActivityStats()
	evals, _ := rt.Stats()
	if got, want := skipped-skipped0, uint64(edges*len(rt.armed)); got != want {
		t.Fatalf("idle edges skipped %d groups, want %d", got, want)
	}
	if evaluated != evaluated0 || evals != evals0 {
		t.Fatalf("idle edges evaluated %d groups and %d conditions, want 0", evaluated-evaluated0, evals-evals0)
	}
}

// TestIdleEdgeStillRunsUnfusedAndWatches: a parked fused condition does
// not make an edge idle while an unfusable member is armed (it hits at
// every edge), and a fused watchpoint fires at every change while the
// breakpoints beside it stay parked. Both match the exhaustive
// reference.
func TestIdleEdgeStillRunsUnfusedAndWatches(t *testing.T) {
	const edges = 12
	t.Run("unfusable", func(t *testing.T) {
		arm := func(d *testDesign, rt *Runtime) func(*StopEvent) {
			// en stays low: count is frozen, so the fused condition parks
			// while the unfusable twin (always true on a known count)
			// hits at every edge.
			if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 200"); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.AddBreakpoint("core_test.go", d.defLine, "count !== 8'bx"); err != nil {
				t.Fatal(err)
			}
			return nil
		}
		walk := runWalk(t, false, 0, edges, arm)
		ref := runWalk(t, true, 0, edges, arm)
		sameStops(t, walk.stops, ref.stops)
		if walk.rt.fused.extras != 1 {
			t.Fatalf("unfusable members = %d, want 1", walk.rt.fused.extras)
		}
		if len(walk.stops) != edges {
			t.Fatalf("unfusable member stopped %d times in %d edges", len(walk.stops), edges)
		}
	})
	t.Run("watch", func(t *testing.T) {
		arm := func(d *testDesign, rt *Runtime) func(*StopEvent) {
			// en stays high: count moves at every edge, so the watch
			// fires at every edge, while both breakpoint conditions
			// read only en and park.
			for _, line := range []int{d.defLine, d.incLine} {
				if _, err := rt.AddBreakpoint("core_test.go", line, "en == 0"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := rt.AddWatch("Counter", "count"); err != nil {
				t.Fatal(err)
			}
			return nil
		}
		walk := runWalk(t, false, 1, edges, arm)
		ref := runWalk(t, true, 1, edges, arm)
		sameStops(t, walk.stops, ref.stops)
		if w := walk.rt.Watches()[0]; w.fusedID < 0 {
			t.Fatal("the watch does not ride the fused program; the leg is vacuous")
		}
		if fs := walk.rt.fused; fs.parked != fs.watchBase {
			t.Fatalf("%d of %d breakpoint conditions parked, want all", fs.parked, fs.watchBase)
		}
		// count holds through the reset edge and the one after it, then
		// moves at every edge.
		if len(walk.stops) != edges-2 {
			t.Fatalf("watch stopped %d times in %d edges: %+v", len(walk.stops), edges, walk.stops)
		}
		for _, s := range walk.stops {
			if s.watches == "" {
				t.Fatalf("a parked breakpoint stopped: %+v", s)
			}
		}
	})
}

// TestWalkFollowsArmedSetChangedAtStop: the statement after the
// default assignment is the increment. A handler that arms it at the
// first stop stops there in the same cycle, and a handler that disarms
// everything ends the walk at once; both match the exhaustive
// reference.
func TestWalkFollowsArmedSetChangedAtStop(t *testing.T) {
	const edges = 8
	t.Run("arm-later-statement", func(t *testing.T) {
		arm := func(d *testDesign, rt *Runtime) func(*StopEvent) {
			if _, err := rt.AddBreakpoint("core_test.go", d.defLine, "count == 2"); err != nil {
				t.Fatal(err)
			}
			armed := false
			return func(*StopEvent) {
				if !armed {
					armed = true
					if _, err := rt.AddBreakpoint("core_test.go", d.incLine, ""); err != nil {
						t.Error(err)
					}
				}
			}
		}
		walk := runWalk(t, false, 1, edges, arm)
		ref := runWalk(t, true, 1, edges, arm)
		sameStops(t, walk.stops, ref.stops)
		if len(walk.stops) < 2 || walk.stops[1].time != walk.stops[0].time {
			t.Fatalf("the statement armed at the first stop did not stop in the same cycle: %+v", walk.stops)
		}
	})
	t.Run("disarm-all", func(t *testing.T) {
		arm := func(d *testDesign, rt *Runtime) func(*StopEvent) {
			for _, line := range []int{d.defLine, d.incLine} {
				if _, err := rt.AddBreakpoint("core_test.go", line, "count == 2"); err != nil {
					t.Fatal(err)
				}
			}
			return func(*StopEvent) { rt.ClearBreakpoints() }
		}
		walk := runWalk(t, false, 1, edges, arm)
		ref := runWalk(t, true, 1, edges, arm)
		sameStops(t, walk.stops, ref.stops)
		if len(walk.stops) != 1 {
			t.Fatalf("disarming at the first stop left %d stops, want 1", len(walk.stops))
		}
	})
}
