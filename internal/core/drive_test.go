package core

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/replay"
	"repro/internal/vcd"
)

// driveLoop runs Runtime.Drive over a replay on a goroutine of its own.
// Its handler hands every stop to the test and waits for the test's
// command, and every step call is counted.
type driveLoop struct {
	t     *testing.T
	stops chan *StopEvent
	cmds  chan Command
	steps atomic.Int64
	done  chan struct{}
	stop  func() // cancels Drive and waits for it to return
}

func startDrive(t *testing.T, rt *Runtime, eng *replay.Engine) *driveLoop {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &driveLoop{t: t, stops: make(chan *StopEvent), cmds: make(chan Command), done: make(chan struct{})}
	rt.SetHandler(func(ev *StopEvent) Command {
		select {
		case d.stops <- ev:
		case <-ctx.Done():
			return CmdDetach
		}
		select {
		case cmd := <-d.cmds:
			return cmd
		case <-ctx.Done():
			return CmdDetach
		}
	})
	go func() {
		defer close(d.done)
		rt.Drive(ctx, func() bool {
			d.steps.Add(1)
			return eng.StepForward()
		})
	}()
	d.stop = func() {
		cancel()
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			t.Fatal("Drive did not return after its context was cancelled")
		}
	}
	t.Cleanup(d.stop)
	return d
}

// next waits for the next stop.
func (d *driveLoop) next() *StopEvent {
	d.t.Helper()
	select {
	case ev := <-d.stops:
		return ev
	case <-time.After(10 * time.Second):
		d.t.Fatal("no stop within 10s")
		return nil
	}
}

// answer resumes the stop the handler holds.
func (d *driveLoop) answer(cmd Command) { d.cmds <- cmd }

// parked checks that the loop has gone quiet — no pending stop, no
// step over 50 ms — and returns its step count.
func (d *driveLoop) parked() int64 {
	d.t.Helper()
	time.Sleep(50 * time.Millisecond)
	n := d.steps.Load()
	select {
	case ev := <-d.stops:
		d.t.Fatalf("unexpected stop at t=%d line %d", ev.Time, ev.Line)
	case <-time.After(50 * time.Millisecond):
	}
	if m := d.steps.Load(); m != n {
		d.t.Fatalf("Drive kept stepping: %d steps, 50 ms later %d", n, m)
	}
	return n
}

// TestDriveParksUntilSomethingCanStop: with nothing armed Drive does
// not step; a query is served while parked without an edge; a pause
// from another goroutine and a breakpoint armed through the query queue
// each wake it; after a detach it parks until cancelled.
func TestDriveParksUntilSomethingCanStop(t *testing.T) {
	d, eng, _, rt := counterReplay(t)
	dr := startDrive(t, rt, eng)
	if n := dr.parked(); n != 0 || eng.Time() != 0 {
		t.Fatalf("with nothing armed Drive stepped %d times, to t=%d", n, eng.Time())
	}

	// The grace is a minute: only a drain point can serve the query in
	// time, and the parked loop is the only one.
	start := time.Now()
	at := uint64(99)
	if err := rt.RunQuery(time.Minute, func() { at = eng.Time() }); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second || at != 0 || dr.steps.Load() != 0 {
		t.Fatalf("parked query ran at t=%d after %v and %d steps, want t=0 at once with no step", at, el, dr.steps.Load())
	}

	rt.InterruptNext()
	if ev := dr.next(); !ev.StepStop || ev.Time != 1 {
		t.Fatalf("pause stop = t=%d step=%v, want a step stop at t=1", ev.Time, ev.StepStop)
	}
	dr.answer(CmdContinue)
	if n := dr.parked(); n != 1 || eng.Time() != 1 {
		t.Fatalf("after the pause Drive stepped %d times, to t=%d; want it parked at t=1", n, eng.Time())
	}

	var armErr error
	if err := rt.RunQuery(time.Minute, func() {
		_, armErr = rt.AddBreakpoint("core_test.go", d.incLine, "")
	}); err != nil || armErr != nil {
		t.Fatal(err, armErr)
	}
	hit := dr.next()
	if hit.Line != d.incLine || hit.StepStop {
		t.Fatalf("after arming: stop at line %d step=%v, want the breakpoint at line %d", hit.Line, hit.StepStop, d.incLine)
	}

	dr.answer(CmdDetach)
	n := dr.parked()
	if eng.Time() != hit.Time {
		t.Fatalf("detached runtime moved from t=%d to t=%d", hit.Time, eng.Time())
	}
	select {
	case <-dr.done:
		t.Fatal("Drive returned on detach, before its context was cancelled")
	default:
	}
	dr.stop()
	if m := dr.steps.Load(); m != n {
		t.Fatalf("Drive stepped %d times after the detach", m-n)
	}
}

// TestDriveStopsAtTraceEnd: past the last hit Drive stops at the last
// cycle's last enabled statement as a reverse step stop instead of
// wrapping to time 0; continue and step stop there again, and
// reverse-continue goes back to the last hit.
func TestDriveStopsAtTraceEnd(t *testing.T) {
	d, eng, _, rt := counterReplay(t)
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 2"); err != nil {
		t.Fatal(err)
	}
	dr := startDrive(t, rt, eng)
	hit := dr.next()
	if hit.Line != d.incLine || hit.StepStop || countOf(t, hit) != 2 {
		t.Fatalf("first stop = t=%d line %d step=%v, want the count == 2 hit", hit.Time, hit.Line, hit.StepStop)
	}
	last := rt.allGroups[len(rt.allGroups)-1].line
	for _, cmd := range []Command{CmdContinue, CmdContinue, CmdStep} {
		dr.answer(cmd)
		end := dr.next()
		if end.Time != eng.MaxTime() || end.Line != last || !end.StepStop || !end.Reverse {
			t.Fatalf("after %v: stop t=%d line %d step=%v reverse=%v, want the end stop at t=%d line %d",
				cmd, end.Time, end.Line, end.StepStop, end.Reverse, eng.MaxTime(), last)
		}
	}
	dr.answer(CmdReverseContinue)
	back := dr.next()
	if back.Time != hit.Time || back.Line != d.incLine || back.StepStop || !back.Reverse {
		t.Fatalf("reverse-continue from the end = t=%d line %d step=%v reverse=%v, want the hit at t=%d",
			back.Time, back.Line, back.StepStop, back.Reverse, hit.Time)
	}
	dr.answer(CmdDetach)
}

// TestDriveEndWithNothingEnabledParks: on a trace where no statement is
// ever enabled, the end walk finds nothing to stop at. Drive must park
// at the end, breakpoint still armed, rather than re-step the trace
// from the cycle the walk rewound to; a pause wakes it for one more
// walk and it parks again.
func TestDriveEndWithNothingEnabledParks(t *testing.T) {
	c := generator.NewCircuit("Gated")
	m := c.NewModule("Gated")
	en := m.Input("en", ir.UIntType(1))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	var line int
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
		line = hereLine() - 1
	})
	s, table := elaborateDesign(t, c, false)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(s, &buf)
	s.Reset("Gated.reset", 1)
	s.Run(8) // en stays 0: the design's only statement never runs
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := vcd.ParseStore(bytes.NewReader(buf.Bytes()), vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := replay.NewStore(st)
	rt, err := New(eng, table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("drive_test.go", line, ""); err != nil {
		t.Fatal(err)
	}
	dr := startDrive(t, rt, eng)
	end := int64(eng.MaxTime())
	// One step per cycle, then the false step at the end; the arming's
	// wake-up costs one more.
	if n := dr.parked(); n > end+2 || eng.Time() != eng.MaxTime() {
		t.Fatalf("Drive made %d steps and sits at t=%d, want at most %d steps, parked at the end t=%d",
			n, eng.Time(), end+2, end)
	}
	n := dr.steps.Load()
	rt.InterruptNext()
	if m := dr.parked(); m != n+1 || eng.Time() != eng.MaxTime() {
		t.Fatalf("a pause at the end cost %d steps and left t=%d, want one walk and t=%d", m-n, eng.Time(), end)
	}
}
