package core

import (
	"bytes"
	"testing"

	"repro/internal/replay"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// These tests pin the fused whole-schedule path (fused.go) to the
// exhaustive EvalBits reference bit for bit, on the bursty counter and
// across the cases where the fused cache could go stale: handler-poked
// values, mid-run breakpoint changes, and reverse scheduling.

// unfusableCounterConds are counterConds with a term only EvalBits
// accepts: a known count never case-equals 8'bx, so each predicate is
// unchanged, but the four-state literal keeps it out of the fused
// program and the forward walk evaluates it per group at every edge.
var unfusableCounterConds = [2]string{
	"count == 3 && count !== 8'bx",
	"count == 5 && count !== 8'bx",
}

// TestFusedSchedulingMatchesPerGroupAndExhaustive is the three-way
// differential on the bursty counter scenario: fused conditions (the
// default), the forward walk's per-group EvalBits fallback for
// conditions that cannot fuse, and the exhaustive reference must
// produce identical stop sequences — and the fused run must actually
// have executed the fused program and skipped idle work.
func TestFusedSchedulingMatchesPerGroupAndExhaustive(t *testing.T) {
	exhaustive, _ := runCounterScenario(t, true, counterConds)
	perGroup, rtPG := runCounterScenario(t, false, unfusableCounterConds)
	fused, rt := runCounterScenario(t, false, counterConds)
	if len(exhaustive) == 0 {
		t.Fatal("scenario produced no stops; test is vacuous")
	}
	if len(perGroup) != len(exhaustive) || len(fused) != len(exhaustive) {
		t.Fatalf("stop counts differ: fused=%d per-group=%d exhaustive=%d",
			len(fused), len(perGroup), len(exhaustive))
	}
	for i := range exhaustive {
		if fused[i] != exhaustive[i] {
			t.Fatalf("stop %d differs:\nfused:      %+v\nexhaustive: %+v", i, fused[i], exhaustive[i])
		}
		if perGroup[i] != exhaustive[i] {
			t.Fatalf("stop %d differs:\nper-group:  %+v\nexhaustive: %+v", i, perGroup[i], exhaustive[i])
		}
	}
	if n := rtPG.fused.watchBase; n != 0 {
		t.Fatalf("%d four-state breakpoint conditions fused; the per-group leg is vacuous", n)
	}
	if rt.FusedRuns() == 0 {
		t.Fatal("fused whole-schedule program never executed")
	}
	if _, ok := rt.FuseInfo(); !ok {
		t.Fatal("no fused schedule was built")
	}
	if skipped, _, _ := rt.ActivityStats(); skipped == 0 {
		t.Fatal("fused run skipped nothing on the idle stretches")
	}
}

// TestFusedHandlerPokeDirtyPropagation: a value the paused user
// deposits from the stop handler must un-park the fused conditions
// depending on it — with en frozen low the breakpoint parks as a
// provable miss, and it can only ever stop if the handler's poke of en
// propagates through the fused skip bitmap.
func TestFusedHandlerPokeDirtyPropagation(t *testing.T) {
	run := func(configure func(*Runtime)) []stopSig {
		d := buildCounterDesign(t, false)
		rt, err := New(vpi.NewSimBackend(d.sim), d.table)
		if err != nil {
			t.Fatal(err)
		}
		configure(rt)
		// en stays low: count is frozen at 0 and the condition parks as
		// a provable miss after the first edge.
		if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 3"); err != nil {
			t.Fatal(err)
		}
		var stops []stopSig
		poked := false
		rt.SetHandler(func(ev *StopEvent) Command {
			stops = append(stops, signature(ev))
			if ev.StepStop && !poked {
				poked = true
				d.sim.Poke("Counter.en", 1)
			}
			return CmdContinue
		})
		d.sim.Reset("Counter.reset", 1)
		d.sim.Run(10) // idle: the armed condition parks
		rt.InterruptNext()
		d.sim.Run(8)
		return stops
	}
	exhaustive := run(func(rt *Runtime) { rt.SetExhaustiveEval(true) })
	fused := run(func(*Runtime) {})
	if len(fused) != len(exhaustive) {
		t.Fatalf("stop counts differ: fused=%d exhaustive=%d", len(fused), len(exhaustive))
	}
	hit := false
	for i := range exhaustive {
		if fused[i] != exhaustive[i] {
			t.Fatalf("stop %d differs:\nfused:      %+v\nexhaustive: %+v", i, fused[i], exhaustive[i])
		}
		if !fused[i].stepStop {
			hit = true
		}
	}
	if !hit {
		t.Fatal("poked condition never hit: handler dirt did not propagate")
	}
}

// TestFusedMidRunRearm: changing the breakpoint set from inside a stop
// handler rebuilds the fused schedule mid-run; the re-armed set must
// stop identically to exhaustive evaluation (and the removed
// breakpoint must stay silent).
func TestFusedMidRunRearm(t *testing.T) {
	run := func(configure func(*Runtime)) []stopSig {
		d := buildCounterDesign(t, false)
		rt, err := New(vpi.NewSimBackend(d.sim), d.table)
		if err != nil {
			t.Fatal(err)
		}
		configure(rt)
		if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 2"); err != nil {
			t.Fatal(err)
		}
		var stops []stopSig
		rearmed := false
		rt.SetHandler(func(ev *StopEvent) Command {
			stops = append(stops, signature(ev))
			if !rearmed {
				rearmed = true
				if _, err := rt.AddBreakpoint("core_test.go", d.defLine, "count == 4"); err != nil {
					t.Error(err)
				}
				rt.RemoveBreakpoint("core_test.go", d.incLine)
			}
			return CmdContinue
		})
		d.sim.Reset("Counter.reset", 1)
		d.sim.Poke("Counter.en", 1)
		d.sim.Run(12)
		return stops
	}
	exhaustive := run(func(rt *Runtime) { rt.SetExhaustiveEval(true) })
	fused := run(func(*Runtime) {})
	if len(exhaustive) < 2 {
		t.Fatalf("re-armed breakpoint never stopped: %+v", exhaustive)
	}
	if len(fused) != len(exhaustive) {
		t.Fatalf("stop counts differ: fused=%d exhaustive=%d", len(fused), len(exhaustive))
	}
	for i := range exhaustive {
		if fused[i] != exhaustive[i] {
			t.Fatalf("stop %d differs:\nfused:      %+v\nexhaustive: %+v", i, fused[i], exhaustive[i])
		}
	}
}

// TestFusedReverseMatchesExhaustive: reverse stepping evaluates with
// EvalBits; with fusion enabled the whole reverse walk (which
// interleaves SetTime rewinds with forward fused state) must still be
// bit-identical to the exhaustive reference.
func TestFusedReverseMatchesExhaustive(t *testing.T) {
	run := func(configure func(*Runtime)) []stopSig {
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
		configure(rt)
		if _, err := rt.AddBreakpoint("core_test.go", d.incLine, "count == 6"); err != nil {
			t.Fatal(err)
		}
		var stops []stopSig
		rt.SetHandler(func(ev *StopEvent) Command {
			stops = append(stops, signature(ev))
			if ev.Time <= 2 {
				return CmdDetach
			}
			return CmdReverseStep
		})
		for eng.StepForward() && len(stops) == 0 {
		}
		return stops
	}
	exhaustive := run(func(rt *Runtime) { rt.SetExhaustiveEval(true) })
	fused := run(func(*Runtime) {})
	if len(exhaustive) < 2 {
		t.Fatalf("reverse walk too short: %+v", exhaustive)
	}
	if len(fused) != len(exhaustive) {
		t.Fatalf("stop counts differ: fused=%d exhaustive=%d", len(fused), len(exhaustive))
	}
	for i := range exhaustive {
		if fused[i] != exhaustive[i] {
			t.Fatalf("stop %d differs:\nfused:      %+v\nexhaustive: %+v", i, fused[i], exhaustive[i])
		}
	}
}
