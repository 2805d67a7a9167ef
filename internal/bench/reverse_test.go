package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/symtab"
	"repro/internal/vcd"
)

// This file pins the runtime's reverse-continue (one backwards walk of
// the schedule inside the clock callback) to the loop the DAP adapter
// used to run instead: answer every stop with a reverse step until one
// carries an armed breakpoint id or reaches time 0. Both run on a
// recorded RISC-V trace from the same start stop, for seeded
// breakpoint sets and start times, and for entry cases with nothing
// armed; each must land at the same time and statement with the same
// armed threads and locals, and the three forward continues after the
// landing must stop identically too.

const (
	// reverseTraceCycles bounds the recorded prefix of each workload.
	reverseTraceCycles = 1500
	// reverseReach bounds how far back a case's landing may lie, in
	// cycles: the reference pays one stop per enabled statement on the
	// way, about 90 µs each.
	reverseReach = 16
	// reverseForward is how many forward continue stops after the
	// landing are compared.
	reverseForward = 3
)

// recordWorkload records the first reverseTraceCycles cycles of a
// workload into an in-memory trace store and returns it with the
// symbol table its machine was built from.
func recordWorkload(t *testing.T, name string) (*riscv.Machine, *vcd.Store) {
	t.Helper()
	w, m := probeWorkload(t, name)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(m.Sim, &buf)
	for i := range m.Cores {
		if err := m.Load(i, w.Prog); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(reverseTraceCycles); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := vcd.ParseStore(&buf, vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

// replayRuntime attaches a fresh runtime to a fresh replay of st and
// arms the choices, returning the engine, the runtime and the armed
// breakpoint ids.
func replayRuntime(t *testing.T, st *vcd.Store, table *symtab.Table, choices []bpChoice) (*replay.Engine, *core.Runtime, map[int64]bool) {
	t.Helper()
	eng := replay.NewStore(st)
	rt, err := core.New(eng, table)
	if err != nil {
		t.Fatal(err)
	}
	armed := map[int64]bool{}
	for _, c := range choices {
		var ids []int64
		if c.instance != "" {
			ids, err = rt.AddBreakpointInstance(c.file, c.line, c.instance, c.cond)
		} else {
			ids, err = rt.AddBreakpoint(c.file, c.line, c.cond)
		}
		if err != nil {
			continue
		}
		for _, id := range ids {
			armed[id] = true
		}
	}
	return eng, rt, armed
}

// hitTimes replays the trace forward with the choices armed and returns
// the time of every stop.
func hitTimes(t *testing.T, st *vcd.Store, table *symtab.Table, choices []bpChoice) []uint64 {
	t.Helper()
	eng, rt, _ := replayRuntime(t, st, table, choices)
	var times []uint64
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		times = append(times, ev.Time)
		return core.CmdContinue
	})
	for eng.StepForward() {
	}
	return times
}

// reverseSig renders a stop for comparison: time, statement, direction,
// and the armed threads with their locals. The reference lands on step
// stops, which also list enabled instances nobody armed, so those are
// compared only at time 0, where both sides land on a step stop.
func reverseSig(ev *core.StopEvent, armed map[int64]bool) string {
	sig := fmt.Sprintf("t=%d %s:%d rev=%v", ev.Time, ev.File, ev.Line, ev.Reverse)
	for _, th := range ev.Threads {
		if !armed[th.BreakpointID] && ev.Time != 0 {
			continue
		}
		sig += fmt.Sprintf(" [%s#%d", th.Instance, th.BreakpointID)
		for _, v := range th.Locals {
			sig += fmt.Sprintf(" %s=%d/%v/%s", v.Name, v.Value, v.Unknown, v.Display())
		}
		sig += "]"
	}
	return sig
}

// reverseFrom replays the trace with the choices armed, stops at the
// first enabled statement of cycle start, and answers that stop with a
// reverse-continue: the runtime's CmdReverseContinue when native is
// set, else the reference loop of reverse steps. It returns the landing
// and the forward continue stops after it, rendered, plus how many
// stops the reverse-continue took and the raw landing.
func reverseFrom(t *testing.T, st *vcd.Store, table *symtab.Table, choices []bpChoice, start uint64, native bool) (sigs []string, cost int, landing *core.StopEvent) {
	t.Helper()
	eng, rt, armed := replayRuntime(t, st, table, choices)
	const capStops = 20000
	reversing, done := false, false
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		switch {
		case landing == nil && !reversing:
			// The start stop.
			reversing = true
			if native {
				return core.CmdReverseContinue
			}
			return core.CmdReverseStep
		case reversing:
			cost++
			hit := false
			for _, th := range ev.Threads {
				hit = hit || armed[th.BreakpointID]
			}
			if !native && !hit && ev.Time > 0 {
				if cost >= capStops {
					t.Errorf("reference reverse-continue from t=%d still walking after %d stops", start, cost)
					done = true
					return core.CmdDetach
				}
				return core.CmdReverseStep
			}
			reversing, landing = false, ev
		}
		sigs = append(sigs, reverseSig(ev, armed))
		if len(sigs) > reverseForward {
			done = true
			return core.CmdDetach
		}
		return core.CmdContinue
	})
	if err := eng.SetTime(start - 1); err != nil {
		t.Fatal(err)
	}
	rt.InterruptNext()
	for !done && eng.StepForward() {
	}
	if landing == nil {
		t.Fatalf("reverse-continue from t=%d never landed", start)
	}
	return sigs, cost, landing
}

// reverseCase is one seeded differential case: a breakpoint set (none
// for an entry case) and the cycle whose first enabled statement the
// walk starts from.
type reverseCase struct {
	name    string
	choices []bpChoice
	start   uint64
}

// reverseCases draws a workload's cases: sets breakpoint sets of
// conditional breakpoints with starts start times each, plus entries
// cases with nothing armed. A start time is drawn by first drawing how
// far back its previous hit lies — up to reverseReach cycles, or as far
// as the entry — so that long and short walks are both covered.
func reverseCases(t *testing.T, m *riscv.Machine, st *vcd.Store, rnd func() uint64, sets, starts, entries int) []reverseCase {
	t.Helper()
	var cases []reverseCase
	for s := 0; s < sets; s++ {
		choices := allConditional(m, rnd, chooseBreakpoints(m, rnd, 3, modCond), modCond)
		hits := hitTimes(t, st, m.Table, choices)
		byReach := map[uint64][]uint64{}
		var reaches []uint64
		k := 0
		for start := uint64(1); start < st.MaxTime; start++ {
			for k < len(hits) && hits[k] < start {
				k++
			}
			prev := uint64(0)
			if k > 0 {
				prev = hits[k-1]
			}
			if r := start - prev; r <= reverseReach {
				if len(byReach[r]) == 0 {
					reaches = append(reaches, r)
				}
				byReach[r] = append(byReach[r], start)
			}
		}
		for i := 0; i < starts; i++ {
			pool := byReach[reaches[rnd()%uint64(len(reaches))]]
			start := pool[rnd()%uint64(len(pool))]
			cases = append(cases, reverseCase{fmt.Sprintf("set%d/t%d", s, start), choices, start})
		}
	}
	for i := 0; i < entries; i++ {
		start := 1 + rnd()%reverseReach
		cases = append(cases, reverseCase{fmt.Sprintf("entry/t%d", start), nil, start})
	}
	return cases
}

// TestReverseContinueMatchesReverseStepsRISCV: the native
// reverse-continue lands where the reference loop of reverse steps
// lands, in one stop, and forward execution from the landing is
// identical.
func TestReverseContinueMatchesReverseStepsRISCV(t *testing.T) {
	if testing.Short() {
		t.Skip("records RISC-V workload traces")
	}
	for _, tc := range stopWorkloads {
		m, st := recordWorkload(t, tc.name)
		rnd := xorshift(tc.seed ^ 0x2545F4914F6CDD1D)
		for _, c := range reverseCases(t, m, st, rnd, 3, 3, 3) {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				ref, refCost, _ := reverseFrom(t, st, m.Table, c.choices, c.start, false)
				got, cost, land := reverseFrom(t, st, m.Table, c.choices, c.start, true)
				if cost != 1 {
					t.Fatalf("native reverse-continue took %d stops, want 1", cost)
				}
				if !land.Reverse || land.StepStop != (land.Time == 0) {
					t.Fatalf("native landing t=%d reverse=%v step=%v: want a reverse stop, a step stop only at time 0",
						land.Time, land.Reverse, land.StepStop)
				}
				if len(got) != len(ref) {
					t.Fatalf("native gave %d stops, reference %d:\nnative:    %q\nreference: %q", len(got), len(ref), got, ref)
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("stop %d after the start differs (reference took %d reverse steps):\nnative:    %s\nreference: %s",
							i, refCost, got[i], ref[i])
					}
				}
				t.Logf("from t=%d landed at t=%d; reference took %d reverse steps", c.start, land.Time, refCost)
			})
		}
	}
}

// rewindWarm is how many forward continue stops a rewind case takes
// before its first reverse-continue, so that misses have parked.
const rewindWarm = 3

// rewindScript answers the stops after the warm-up: runs of one to
// three reverse-continues alternate with runs of continues, so that
// walks cross more than one hit in each direction and forward runs
// pass back over hits the rewinds crossed.
var rewindScript = []core.Command{
	core.CmdReverseContinue, core.CmdContinue,
	core.CmdReverseContinue, core.CmdReverseContinue, core.CmdContinue, core.CmdContinue,
	core.CmdReverseContinue, core.CmdReverseContinue, core.CmdReverseContinue, core.CmdContinue, core.CmdContinue, core.CmdContinue,
	core.CmdContinue, core.CmdContinue, core.CmdReverseContinue, core.CmdReverseContinue, core.CmdReverseContinue, core.CmdContinue, core.CmdContinue, core.CmdContinue,
}

// rewindRun replays the trace with the choices armed, on the default
// scheduler or the exhaustive reference, answers rewindWarm stops with
// continue and the next ones from rewindScript, and returns every stop
// rendered plus the runtime (for activity stats).
func rewindRun(t *testing.T, st *vcd.Store, table *symtab.Table, choices []bpChoice, exhaustive bool) ([]string, *core.Runtime) {
	t.Helper()
	eng, rt, armed := replayRuntime(t, st, table, choices)
	rt.SetExhaustiveEval(exhaustive)
	var sigs []string
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		sigs = append(sigs, reverseSig(ev, armed))
		switch n := len(sigs) - rewindWarm; {
		case n < 0:
			return core.CmdContinue
		case n < len(rewindScript):
			return rewindScript[n]
		default:
			return core.CmdDetach
		}
	})
	for eng.StepForward() {
	}
	return sigs, rt
}

// TestReplayRewindMatchesExhaustiveRISCV: on a replay, conditions that
// parked as misses before a reverse-continue stay parked across the
// backward seek only while their operands read the same values, so
// the stops after each rewind equal the exhaustive reference's, stop
// by stop. The live stop differentials never seek backwards.
func TestReplayRewindMatchesExhaustiveRISCV(t *testing.T) {
	if testing.Short() {
		t.Skip("records RISC-V workload traces")
	}
	var parked uint64
	for _, tc := range stopWorkloads {
		m, st := recordWorkload(t, tc.name)
		rnd := xorshift(tc.seed ^ 0xD6E8FEB86659FD93)
		for s := 0; s < 8; s++ {
			// Odd sets are all conditional; even sets keep
			// chooseBreakpoints' unconditional picks, whose enables
			// hold over runs of cycles, so consecutive hits straddle
			// the rewinds. A set is redrawn until the trace holds
			// enough hits to continue past the warm-up.
			var choices []bpChoice
			for len(hitTimes(t, st, m.Table, choices)) <= rewindWarm+1 {
				choices = chooseBreakpoints(m, rnd, 3, modCond)
				if s%2 == 1 {
					choices = allConditional(m, rnd, choices, modCond)
				}
			}
			t.Run(fmt.Sprintf("%s/set%d", tc.name, s), func(t *testing.T) {
				ref, _ := rewindRun(t, st, m.Table, choices, true)
				got, rt := rewindRun(t, st, m.Table, choices, false)
				if len(got) != len(ref) {
					t.Fatalf("default gave %d stops, reference %d:\ndefault:   %q\nreference: %q", len(got), len(ref), got, ref)
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("stop %d differs:\ndefault:   %s\nreference: %s", i, got[i], ref[i])
					}
				}
				skipped, _, _ := rt.ActivityStats()
				parked += skipped
				t.Logf("%d stops, %d groups skipped clean", len(got), skipped)
			})
		}
	}
	if parked == 0 {
		t.Fatal("nothing parked: the rewinds crossed no parked condition")
	}
}
