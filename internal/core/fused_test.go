package core

import (
	"bytes"
	"fmt"
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

// failingReads fails the batched read of one path at odd times and
// hands back bits that would hit if the fused program used them; reads
// by path pass through, so the general evaluator sees the true value.
type failingReads struct {
	vpi.Interface
	path    string
	garbage uint64
}

func (f *failingReads) ReadValues(hs []vpi.Handle, dst []uint64, ok []bool) {
	f.Interface.ReadValues(hs, dst, ok)
	if f.Interface.Time()%2 == 0 {
		return
	}
	if h, _, err := f.Interface.Resolve(f.path); err == nil {
		for i := range hs {
			if hs[i] == h {
				dst[i], ok[i] = f.garbage, false
			}
		}
	}
}

// TestFusedFailedReadPoisonsItsSlotOnly: a union read that fails
// poisons exactly the fused conditions whose slots include it, and
// those fall back to the general evaluator. count's read fails on odd
// edges with bits that satisfy its condition, out's never fails; both
// breakpoints must stop exactly where the exhaustive reference does,
// and on a failing edge only the count condition may be poisoned.
func TestFusedFailedReadPoisonsItsSlotOnly(t *testing.T) {
	conds := map[bool]string{true: "count % 4 == 1", false: "out % 4 == 2"}
	run := func(reference bool) ([]string, *Runtime) {
		d := buildCounterDesign(t, false)
		rt, err := New(&failingReads{Interface: vpi.NewSimBackend(d.sim), path: "Counter.count", garbage: 1}, d.table)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetExhaustiveEval(reference)
		for _, onInc := range []bool{true, false} {
			line := d.defLine
			if onInc {
				line = d.incLine
			}
			if _, err := rt.AddBreakpoint("core_test.go", line, conds[onInc]); err != nil {
				t.Fatal(err)
			}
		}
		var stops []string
		rt.SetHandler(func(ev *StopEvent) Command {
			stops = append(stops, fmt.Sprintf("t%d:L%d", ev.Time, ev.Line))
			return CmdContinue
		})
		d.sim.Poke("Counter.en", 1)
		d.sim.Run(14) // edges at times 0 to 13: the last one's read fails
		return stops, rt
	}
	ref, _ := run(true)
	got, rt := run(false)
	if len(ref) < 4 {
		t.Fatalf("reference stopped only at %v; test is vacuous", ref)
	}
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("fused stops %v, reference %v", got, ref)
	}
	fs := rt.fused
	if fs.n != 2 || !fs.poisoned {
		t.Fatalf("%d conditions fused, poisoned %v: want both fused and the last edge's read failed", fs.n, fs.poisoned)
	}
	for ci, ibp := range fs.conds {
		readsCount := ibp.cond.paths[0] == "Counter.count"
		if fs.sound(int32(ci)) == readsCount {
			t.Fatalf("condition %d (%v) sound %v on a failing edge", ci, ibp.cond.paths, fs.sound(int32(ci)))
		}
	}
}

// TestFusedTernaryTruthBreakpoint: a breakpoint's condition is read
// only as a truth, so a ?: whose arms differ in type fuses (and parks)
// there and stops where the exhaustive reference stops; the same ?: as
// a watch value, whose width is observed, stays with EvalBits.
func TestFusedTernaryTruthBreakpoint(t *testing.T) {
	conds := [2]string{"count == 3 ? count : 0", "count[2:0] == 5 ? count[2:0] : 2'd0"}
	exhaustive, _ := runCounterScenario(t, true, conds)
	fused, rt := runCounterScenario(t, false, conds)
	if len(exhaustive) == 0 {
		t.Fatal("scenario produced no stops; test is vacuous")
	}
	if fmt.Sprint(fused) != fmt.Sprint(exhaustive) {
		t.Fatalf("fused stops %+v, exhaustive %+v", fused, exhaustive)
	}
	if fs := rt.fused; fs.watchBase != 2 || fs.extras != 0 {
		t.Fatalf("%d breakpoint conditions fused, %d extras: want both fused", fs.watchBase, fs.extras)
	}
	if skipped, _, _ := rt.ActivityStats(); skipped == 0 {
		t.Fatal("fused run skipped nothing on the idle stretches")
	}
	d := buildCounterDesign(t, false)
	rt, err := New(vpi.NewSimBackend(d.sim), d.table)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"en ? count : 0", "en ? count : count"} {
		if _, err := rt.AddWatch("Counter", src); err != nil {
			t.Fatal(err)
		}
	}
	rt.SetHandler(func(*StopEvent) Command { return CmdContinue })
	d.sim.Run(2)
	if w := rt.Watches(); w[0].fusedID >= 0 || w[1].fusedID < 0 {
		t.Fatalf("watch fused ids %d, %d: want only the second (arms of one type) fused", w[0].fusedID, w[1].fusedID)
	}
}
