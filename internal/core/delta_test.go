package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/replay"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// stopSig is the full observable identity of one stop, used to pin the
// fused, activity-driven walk to the exhaustive reference bit for bit.
type stopSig struct {
	time     uint64
	file     string
	line     int
	reverse  bool
	stepStop bool
	threads  string
	watches  string
}

func signature(ev *StopEvent) stopSig {
	sig := stopSig{
		time: ev.Time, file: ev.File, line: ev.Line,
		reverse: ev.Reverse, stepStop: ev.StepStop,
	}
	for _, th := range ev.Threads {
		sig.threads += fmt.Sprintf("%s#%d;", th.Instance, th.BreakpointID)
		for _, v := range th.Locals {
			sig.threads += fmt.Sprintf("%s=%d/%v,", v.Name, v.Value, v.Unknown)
		}
	}
	for _, wh := range ev.Watch {
		sig.watches += fmt.Sprintf("%d:%s:%d->%d;", wh.ID, wh.Expr, wh.Old, wh.New)
	}
	return sig
}

// counterConds are the bursty counter scenario's user conditions on
// its increment and default statements.
var counterConds = [2]string{"count == 3", "count == 5"}

// runCounterScenario drives one fresh counter simulation with a bursty
// enable pattern (mostly idle, short active bursts) on the default path
// or the exhaustive reference and returns every stop signature.
func runCounterScenario(t *testing.T, exhaustive bool, conds [2]string) ([]stopSig, *Runtime) {
	t.Helper()
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetExhaustiveEval(exhaustive)
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, conds[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.defLine, conds[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddWatch("Counter", "count[1]"); err != nil {
		t.Fatal(err)
	}
	var stops []stopSig
	rt.SetHandler(func(ev *StopEvent) Command {
		stops = append(stops, signature(ev))
		return CmdContinue
	})
	d.sim.Reset("Counter.reset", 1)
	// Bursty activity: short enabled windows separated by long idle
	// stretches where every dependency signal is frozen.
	for burst := 0; burst < 4; burst++ {
		d.sim.Poke("Counter.en", 1)
		d.sim.Run(3)
		d.sim.Poke("Counter.en", 0)
		d.sim.Run(20)
	}
	return stops, rt
}

// TestDeltaSchedulingMatchesExhaustive pins the scheduler's contract:
// the activity-driven default walk produces the identical stop
// sequence (times, locations, hit instances, frame values, watch hits)
// as the exhaustive reference evaluating every group with EvalBits at
// every edge, while actually skipping work on the idle stretches.
func TestDeltaSchedulingMatchesExhaustive(t *testing.T) {
	exhaustive, _ := runCounterScenario(t, true, counterConds)
	delta, rt := runCounterScenario(t, false, counterConds)
	if len(exhaustive) == 0 {
		t.Fatal("scenario produced no stops; test is vacuous")
	}
	if len(delta) != len(exhaustive) {
		t.Fatalf("stop counts differ: delta=%d exhaustive=%d", len(delta), len(exhaustive))
	}
	for i := range delta {
		if delta[i] != exhaustive[i] {
			t.Fatalf("stop %d differs:\ndelta:      %+v\nexhaustive: %+v", i, delta[i], exhaustive[i])
		}
	}
	skipped, evaluated, _ := rt.ActivityStats()
	if skipped == 0 {
		t.Fatal("delta run skipped nothing; activity scheduling inert")
	}
	if evaluated == 0 {
		t.Fatal("delta run evaluated nothing")
	}
}

// TestDeltaSkipsIdleEdges checks the quantitative claim on the sim
// backend: with the enable signal frozen low, the armed group's
// dependencies are clean and per-edge evaluation stops entirely.
func TestDeltaSkipsIdleEdges(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 200"); err != nil {
		t.Fatal(err)
	}
	rt.SetHandler(func(ev *StopEvent) Command { return CmdContinue })
	d.sim.Reset("Counter.reset", 1)
	d.sim.Run(5) // settle the first-edge full evaluations
	evalsBefore, _ := rt.Stats()
	d.sim.Run(50) // en=0 throughout: all deps frozen
	evalsAfter, _ := rt.Stats()
	if evalsAfter != evalsBefore {
		t.Fatalf("idle stretch still evaluated conditions: %d -> %d", evalsBefore, evalsAfter)
	}
	// The moment activity returns, evaluation resumes.
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(2)
	evalsResumed, _ := rt.Stats()
	if evalsResumed == evalsAfter {
		t.Fatal("activity did not resume evaluation")
	}
}

// TestDeltaStepAlwaysEvaluates: stepping evaluates every statement
// with EvalBits, so a step stop lands on the next enabled statement
// even when its condition was parked as a clean miss.
func TestDeltaStepAlwaysEvaluates(t *testing.T) {
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 200"); err != nil {
		t.Fatal(err)
	}
	stops := 0
	rt.SetHandler(func(ev *StopEvent) Command {
		stops++
		if !ev.StepStop {
			t.Errorf("expected step stop, got %+v", ev)
		}
		return CmdDetach
	})
	d.sim.Reset("Counter.reset", 1)
	d.sim.Run(10) // park the armed group as a clean miss
	rt.InterruptNext()
	d.sim.Run(2)
	if stops != 1 {
		t.Fatalf("step stops = %d, want 1", stops)
	}
}

// recordCounterTrace records the counter with a phased enable (off,
// then on) so reverse execution crosses cycles with different enable
// values.
func recordCounterTrace(t *testing.T) (*testDesign, []byte) {
	t.Helper()
	d := buildCounterDesign(t, false)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(d.sim, &buf)
	d.sim.Reset("Counter.reset", 1)
	d.sim.Run(3) // en=0: increment line disabled
	d.sim.Poke("Counter.en", 1)
	d.sim.Run(10)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return d, buf.Bytes()
}

// TestReverseRewindInvalidatesPrefetch is the regression test for the
// cross-cycle rewind bug: schedule's SetTime(t-1) success path must
// invalidate the per-edge prefetch cache, so condition and enable
// evaluation at the rewound cycles reads that cycle's values, never
// values fetched before the rewind. Observable contract: while
// reverse-stepping across many cycles, the increment statement may
// only produce stops at cycles where the recorded enable was actually
// high.
func TestReverseRewindInvalidatesPrefetch(t *testing.T) {
	d, data := recordCounterTrace(t)
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := replay.NewStore(st, replay.WithCheckpointInterval(2))
	rt, err := New(eng, d.table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 6"); err != nil {
		t.Fatal(err)
	}
	enSig, ok := st.Signal("Counter.en")
	if !ok {
		t.Fatal("Counter.en not in trace")
	}
	type stop struct {
		time uint64
		line int
	}
	var stops []stop
	rt.SetHandler(func(ev *StopEvent) Command {
		stops = append(stops, stop{ev.Time, ev.Line})
		if ev.Time <= 2 { // rewound into the disabled phase
			return CmdDetach
		}
		return CmdReverseStep
	})
	// Drive forward until the conditional stop, then let the handler
	// reverse all the way back into the disabled phase.
	for eng.StepForward() && len(stops) == 0 {
	}
	if len(stops) < 2 {
		t.Fatalf("reverse walk too short: %+v", stops)
	}
	if stops[0].line != d.incLine {
		t.Fatalf("first stop at line %d, want increment line %d", stops[0].line, d.incLine)
	}
	for _, s := range stops[1:] {
		if s.line == d.incLine && enSig.ValueAt(s.time) == 0 {
			t.Fatalf("stale evaluation: increment line stopped at t=%d where en=0 (stops=%+v)",
				s.time, stops)
		}
	}
	// The walk must genuinely have crossed into the disabled phase.
	last := stops[len(stops)-1]
	if last.time > 2 {
		t.Fatalf("reverse never reached the disabled phase: %+v", stops)
	}
}

// flakyBackend wraps a backend and fails reads of selected paths —
// the transient replay gap scenario. Embedding the interface (not the
// concrete type) deliberately hides the prefetch and four-state read
// capabilities, so the frame's ReadBits fallback goes through the
// failing GetValue; reads by handle pass through unharmed.
type flakyBackend struct {
	vpi.Interface
	fail map[string]bool
}

func (f *flakyBackend) GetValue(p string) (eval.Value, error) {
	if f.fail[p] {
		return eval.Value{}, errors.New("transient gap")
	}
	return f.Interface.GetValue(p)
}

// TestFrameUnknownValueMarker: a frame variable whose backend read
// fails is emitted with the Unknown marker instead of silently
// disappearing, and the frame keeps the same shape as a healthy run.
func TestFrameUnknownValueMarker(t *testing.T) {
	shape := func(fail map[string]bool) (names []string, unknown map[string]bool) {
		d := buildCounterDesign(t, false)
		fb := &flakyBackend{Interface: vpi.NewSimBackend(d.sim), fail: fail}
		rt, err := New(fb, d.table)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.AddBreakpoint("core_test.go", d.incLine, ""); err != nil {
			t.Fatal(err)
		}
		unknown = map[string]bool{}
		rt.SetHandler(func(ev *StopEvent) Command {
			for _, v := range ev.Threads[0].Locals {
				names = append(names, v.Name)
				unknown[v.Name] = v.Unknown
			}
			return CmdDetach
		})
		d.sim.Reset("Counter.reset", 1)
		d.sim.Poke("Counter.en", 1)
		d.sim.Run(2)
		return names, unknown
	}

	healthy, healthyUnknown := shape(nil)
	if len(healthy) == 0 {
		t.Fatal("no locals in healthy run")
	}
	for n, u := range healthyUnknown {
		if u {
			t.Fatalf("healthy run marked %s unknown", n)
		}
	}
	// Fail the first local's RTL path and re-run.
	d := buildCounterDesign(t, false)
	rtProbe, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	vars := rtProbe.Table().ScopeVars(rtProbe.Table().BreakpointsAt("core_test.go", d.incLine)[0].ID)
	if len(vars) == 0 {
		t.Fatal("no scope vars")
	}
	failPath := rtProbe.Remap().ToSim("Counter." + vars[0].RTL)
	failName := vars[0].Name

	flaky, flakyUnknown := shape(map[string]bool{failPath: true})
	if len(flaky) != len(healthy) {
		t.Fatalf("frame shape changed under read failure: %v vs %v", flaky, healthy)
	}
	if !flakyUnknown[failName] {
		t.Fatalf("failed variable %s not marked unknown: %v", failName, flakyUnknown)
	}
}
