package core

import (
	"bytes"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// pauseOnRead pauses the runtime from inside the scheduler's walk: the
// first batched read of path's handle at or after time `after` calls
// InterruptNext, the way an editor's pause lands while the simulation
// goroutine is busy evaluating conditions.
type pauseOnRead struct {
	vpi.Interface
	rt    *Runtime
	path  string
	after uint64
	fired bool
}

func (p *pauseOnRead) ReadValues(hs []vpi.Handle, dst []uint64, ok []bool) {
	if !p.fired && p.rt != nil && p.Interface.Time() >= p.after {
		if h, _, err := p.Resolve(p.path); err == nil && slices.Contains(hs, h) {
			p.fired = true
			p.rt.InterruptNext()
		}
	}
	p.Interface.ReadValues(hs, dst, ok)
}

// TestInterruptDuringWalk: a pause requested while the scheduler walks
// an edge's armed schedule survives the walk and stops at the next
// enabled statement. The armed condition never holds, so without the
// pause no stop ever comes.
func TestInterruptDuringWalk(t *testing.T) {
	d := buildCounterDesign(t, false)
	be := &pauseOnRead{Interface: vpi.NewSimBackend(d.sim), path: "Counter.count", after: 3}
	rt, err := New(be, d.table)
	if err != nil {
		t.Fatal(err)
	}
	be.rt = rt
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 255 && en == 0"); err != nil {
		t.Fatal(err)
	}
	var stops []*StopEvent
	rt.SetHandler(func(ev *StopEvent) Command {
		stops = append(stops, ev)
		return CmdContinue
	})
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(20)
	if !be.fired {
		t.Fatal("the walk never read Counter.count at time >= 3")
	}
	if len(stops) != 1 {
		t.Fatalf("pause during the walk gave %d stops, want 1", len(stops))
	}
	if ev := stops[0]; !ev.StepStop || ev.Reverse || ev.Time < 3 {
		t.Fatalf("pause stop = t=%d step=%v reverse=%v", ev.Time, ev.StepStop, ev.Reverse)
	}
}

// rewindHook runs fn when the runtime rewinds the replay to time at.
type rewindHook struct {
	vpi.Interface
	at uint64
	fn func()
}

func (h *rewindHook) SetTime(t uint64) error {
	err := h.Interface.SetTime(t)
	if err == nil && t == h.at && h.fn != nil {
		fn := h.fn
		h.fn = nil
		fn()
	}
	return err
}

// counterReplay serves the recorded counter (three cycles with en=0,
// then ten incrementing) through the block-store engine, wrapped in a
// rewind hook.
func counterReplay(t *testing.T) (*testDesign, *replay.Engine, *rewindHook, *Runtime) {
	t.Helper()
	d, data := recordCounterTrace(t)
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := replay.NewStore(st, replay.WithCheckpointInterval(2))
	hook := &rewindHook{Interface: eng}
	rt, err := New(hook, d.table)
	if err != nil {
		t.Fatal(err)
	}
	return d, eng, hook, rt
}

// reverseRun drives the replay forward to the forward-th stop, answers
// it with CmdReverseContinue, and returns every stop plus how many of
// them the reverse-continue cost (core stop count). before runs at the
// forward-th stop, just before the command is returned.
func reverseRun(t *testing.T, eng *replay.Engine, rt *Runtime, forward int, before func()) (stops []*StopEvent, reverseStops uint64) {
	t.Helper()
	var atReverse uint64
	rt.SetHandler(func(ev *StopEvent) Command {
		stops = append(stops, ev)
		if len(stops) < forward {
			return CmdContinue
		}
		if len(stops) == forward {
			if before != nil {
				before()
			}
			_, atReverse = rt.Stats()
			return CmdReverseContinue
		}
		return CmdDetach
	})
	for eng.StepForward() && len(stops) <= forward {
	}
	if len(stops) != forward+1 {
		t.Fatalf("got %d stops, want %d forward plus the reverse landing", len(stops), forward)
	}
	_, total := rt.Stats()
	return stops, total - atReverse
}

func countOf(t *testing.T, ev *StopEvent) uint64 {
	t.Helper()
	for _, v := range ev.Threads[0].Locals {
		if v.Name == "count" {
			return v.Value
		}
	}
	t.Fatalf("no count local at t=%d", ev.Time)
	return 0
}

// TestReverseContinueLandsOnPreviousHit: reverse-continue from a
// breakpoint hit walks back to the previous hit in one stop, with the
// frame the forward visit showed.
func TestReverseContinueLandsOnPreviousHit(t *testing.T) {
	d, eng, _, rt := counterReplay(t)
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count % 3 == 1"); err != nil {
		t.Fatal(err)
	}
	stops, cost := reverseRun(t, eng, rt, 3, nil)
	prev, from, land := stops[1], stops[2], stops[3]
	if cost != 1 {
		t.Fatalf("reverse-continue cost %d core stops, want 1", cost)
	}
	if land.Time != prev.Time || land.Line != d.incLine || countOf(t, land) != countOf(t, prev) {
		t.Fatalf("landed at t=%d line %d count=%d, want the previous hit t=%d count=%d (from t=%d)",
			land.Time, land.Line, countOf(t, land), prev.Time, countOf(t, prev), from.Time)
	}
	if !land.Reverse || land.StepStop {
		t.Fatalf("landing reverse=%v step=%v, want a reverse breakpoint stop", land.Reverse, land.StepStop)
	}
}

// TestReverseContinueNothingArmedLandsOnEntry: with no breakpoint armed
// the walk neither resumes forward nor runs off the trace; it stops at
// the first enabled statement it reaches in cycle 0, as a step stop.
func TestReverseContinueNothingArmedLandsOnEntry(t *testing.T) {
	d, eng, _, rt := counterReplay(t)
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 6"); err != nil {
		t.Fatal(err)
	}
	stops, cost := reverseRun(t, eng, rt, 1, rt.ClearBreakpoints)
	land := stops[1]
	if cost != 1 {
		t.Fatalf("reverse-continue cost %d core stops, want 1", cost)
	}
	// The schedule's last statement (out.Set) is unconditional, so it is
	// the first enabled one a reverse walk of cycle 0 reaches.
	last := rt.allGroups[len(rt.allGroups)-1].line
	if land.Time != 0 || land.Line != last || !land.Reverse || !land.StepStop {
		t.Fatalf("entry stop = t=%d line %d reverse=%v step=%v, want t=0 line %d reverse step",
			land.Time, land.Line, land.Reverse, land.StepStop, last)
	}
}

// TestReverseContinuePauseDuringWalk: a pause that arrives during the
// walk turns it into a reverse step at the next cycle boundary, so the
// next enabled statement stops there instead of the previous hit.
func TestReverseContinuePauseDuringWalk(t *testing.T) {
	d, eng, hook, rt := counterReplay(t)
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 1 || count == 9"); err != nil {
		t.Fatal(err)
	}
	hook.at = 7
	hook.fn = rt.InterruptNext
	stops, cost := reverseRun(t, eng, rt, 2, nil)
	land := stops[2]
	if cost != 1 {
		t.Fatalf("paused reverse-continue cost %d core stops, want 1", cost)
	}
	last := rt.allGroups[len(rt.allGroups)-1].line
	if land.Time != hook.at || !land.Reverse || !land.StepStop || land.Line != last {
		t.Fatalf("pause landing = t=%d line %d reverse=%v step=%v, want a reverse step stop at t=%d line %d",
			land.Time, land.Line, land.Reverse, land.StepStop, hook.at, last)
	}
}

// TestReverseContinueServesQueries: a query issued while the walk runs
// is drained at the walk's next cycle boundary, on the simulation
// goroutine, rather than waiting out the idle grace and running inline.
func TestReverseContinueServesQueries(t *testing.T) {
	d, eng, hook, rt := counterReplay(t)
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 1 || count == 9"); err != nil {
		t.Fatal(err)
	}
	var ranAt atomic.Int64
	ranAt.Store(-1)
	queryErr := make(chan error, 1)
	hook.at = 7
	hook.fn = func() {
		// Queue the query from another goroutine while the walk is
		// rewinding, and hold the walk until it is queued.
		go func() {
			queryErr <- rt.RunQuery(time.Minute, func() { ranAt.Store(int64(eng.Time())) })
		}()
		for len(rt.Queries()) == 0 {
			runtime.Gosched()
		}
	}
	stops, _ := reverseRun(t, eng, rt, 2, nil)
	if land := stops[2]; !land.Reverse || land.StepStop || countOf(t, land) != 1 {
		t.Fatalf("landing = t=%d reverse=%v step=%v", land.Time, land.Reverse, land.StepStop)
	}
	select {
	case err := <-queryErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query issued during the walk was not served by it")
	}
	if got := ranAt.Load(); got != int64(hook.at) {
		t.Fatalf("query ran at t=%d, want the walk's boundary at t=%d", got, hook.at)
	}
}
