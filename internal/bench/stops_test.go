package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/riscv"
	"repro/internal/vpi"
)

// This file pins the default scheduler — the fused whole-schedule
// program with activity skipping — to the exhaustive reference
// (SetExhaustiveEval: every group at every clock edge through the
// four-state EvalBits) over the real Figure 5 machines: for randomized
// breakpoint sets on RISC-V workloads, both must produce the identical
// stop sequence — times, locations, hit instances, frame values and
// their rendered displays. One checker, checkStopEquivalence, makes
// every comparison; three tests feed it disjoint breakpoint sets, each
// aimed at one part of the default path:
//
//   - TestDeltaStopEquivalenceRISCV: randomized 16-choice rounds, where
//     activity skipping decides most edges;
//   - TestFusedStopEquivalenceRISCV: 100+ armed breakpoints, the scale
//     fusion and its shared segments target;
//   - TestGeneralEvalStopEquivalenceRISCV: conditions drawn from a wide
//     operator mix, so the fused lowering and EvalBits must agree
//     operator by operator on real machine values.

// xorshift is the deterministic rng for breakpoint-set selection.
func xorshift(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
}

// bpChoice describes one randomized arming decision, derived from the
// symbol table (identical across machines of the same workload).
type bpChoice struct {
	file     string
	line     int
	instance string // empty: all instances
	cond     string // empty: unconditional
}

// condFunc draws one user condition on the scoped variable v.
type condFunc func(v string, rnd func() uint64) string

// modCond is the default condition shape: a residue test that holds on
// a fraction of the cycles.
func modCond(v string, rnd func() uint64) string {
	return fmt.Sprintf("%s %% %d == %d", v, 5+rnd()%11, rnd()%4)
}

// mixedCond draws a condition on v from a wider operator mix —
// bitwise, shift, relational, arithmetic, logical and case equality —
// with small constants, so that one-bit flags and wide words alike see
// conditions that hold on some cycles and fail on others.
func mixedCond(v string, rnd func() uint64) string {
	a, b := 1+rnd()%15, rnd()%4
	switch rnd() % 8 {
	case 0:
		return fmt.Sprintf("(%s & %d) === %d", v, a|b, b)
	case 1:
		return fmt.Sprintf("%s >> %d == %d", v, b, a%4)
	case 2:
		return fmt.Sprintf("%s < %d || %s >= %d", v, a, v, a<<4)
	case 3:
		return fmt.Sprintf("((%s ^ %d) & 1) == %d", v, a, b&1)
	case 4:
		return fmt.Sprintf("!(%s - %d > %d)", v, b, a)
	case 5:
		return fmt.Sprintf("%s * 3 + %d !== %d", v, b, a)
	case 6:
		return fmt.Sprintf("(%s | %d) == %d", v, b, a)
	default:
		return fmt.Sprintf("%s != %d && %s <= %d", v, a, v, b)
	}
}

// allConditional gives every unconditional choice a condition from
// cond on a variable in its statement's scope, so that conditions
// alone decide the stop sequence.
func allConditional(m *riscv.Machine, rnd func() uint64, choices []bpChoice, cond condFunc) []bpChoice {
	for i, c := range choices {
		if c.cond != "" {
			continue
		}
		if vars := m.Table.ScopeVars(m.Table.BreakpointsAt(c.file, c.line)[0].ID); len(vars) > 0 {
			choices[i].cond = cond(vars[rnd()%uint64(len(vars))].Name, rnd)
		}
	}
	return choices
}

// chooseBreakpoints derives a deterministic random breakpoint set from
// the machine's symbol table, drawing user conditions from cond.
func chooseBreakpoints(m *riscv.Machine, rnd func() uint64, n int, cond condFunc) []bpChoice {
	type loc struct {
		file string
		line int
	}
	var locs []loc
	for _, f := range m.Table.Files() {
		for _, l := range m.Table.Lines(f) {
			locs = append(locs, loc{f, l})
		}
	}
	var out []bpChoice
	for i := 0; i < n && len(locs) > 0; i++ {
		pick := locs[rnd()%uint64(len(locs))]
		c := bpChoice{file: pick.file, line: pick.line}
		bps := m.Table.BreakpointsAt(pick.file, pick.line)
		if len(bps) == 0 {
			continue
		}
		// A third of the picks get a user condition on a scoped
		// variable, another third are instance-scoped.
		switch rnd() % 3 {
		case 0:
			if vars := m.Table.ScopeVars(bps[0].ID); len(vars) > 0 {
				v := vars[rnd()%uint64(len(vars))]
				c.cond = cond(v.Name, rnd)
			}
		case 1:
			c.instance = bps[rnd()%uint64(len(bps))].InstanceName
		}
		out = append(out, c)
	}
	return out
}

// runStops executes one workload with the chosen breakpoints, on the
// default scheduler or the exhaustive reference, and returns the
// stop-sequence signatures plus the runtime (for activity stats).
// Stops are capped so unconditional breakpoints on hot lines stay
// affordable; the cap cuts both modes at the same stop index, so
// comparisons stay exact.
func runStops(t *testing.T, w *riscv.Workload, choices []bpChoice, reference bool) ([]string, *core.Runtime) {
	t.Helper()
	nCores := 1
	if w.MT {
		nCores = 2
	}
	m, err := riscv.NewMachine(nCores, false)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(vpi.NewSimBackend(m.Sim), m.Table)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetExhaustiveEval(reference)
	armed := 0
	for _, c := range choices {
		if c.instance != "" {
			if _, err := rt.AddBreakpointInstance(c.file, c.line, c.instance, c.cond); err == nil {
				armed++
			}
			continue
		}
		if _, err := rt.AddBreakpoint(c.file, c.line, c.cond); err == nil {
			armed++
		}
	}
	if armed == 0 {
		t.Fatalf("no breakpoint of %d choices armed", len(choices))
	}
	const stopCap = 3000
	var stops []string
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		sig := fmt.Sprintf("t=%d %s:%d rev=%v step=%v", ev.Time, ev.File, ev.Line, ev.Reverse, ev.StepStop)
		for _, th := range ev.Threads {
			sig += fmt.Sprintf(" [%s#%d", th.Instance, th.BreakpointID)
			for _, v := range th.Locals {
				sig += fmt.Sprintf(" %s=%d/%v/%s", v.Name, v.Value, v.Unknown, v.Display())
			}
			sig += "]"
		}
		for _, wh := range ev.Watch {
			sig += fmt.Sprintf(" w%d:%d->%d/%s->%s", wh.ID, wh.Old, wh.New, wh.OldDisplay, wh.NewDisplay)
		}
		stops = append(stops, sig)
		if len(stops) >= stopCap {
			return core.CmdDetach
		}
		return core.CmdContinue
	})
	for i := range m.Cores {
		if err := m.Load(i, w.Prog); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w.MaxCycles); err != nil {
		t.Fatal(err)
	}
	return stops, rt
}

// chooseManyBreakpoints keeps drawing randomized choices until the
// armed set would reach the target count (each choice can arm several
// statements and instances).
func chooseManyBreakpoints(t *testing.T, m *riscv.Machine, rnd func() uint64, target int) []bpChoice {
	t.Helper()
	var choices []bpChoice
	armed := map[int64]bool{}
	for tries := 0; len(armed) < target && tries < 64; tries++ {
		for _, c := range chooseBreakpoints(m, rnd, 16, modCond) {
			choices = append(choices, c)
			for _, bp := range m.Table.BreakpointsAt(c.file, c.line) {
				if c.instance == "" || bp.InstanceName == c.instance {
					armed[bp.ID] = true
				}
			}
		}
	}
	if len(armed) < target {
		t.Skipf("symbol table too small: only %d distinct breakpoints reachable", len(armed))
	}
	return choices
}

// withCaseEq turns every other user condition's == into ===: on known
// two-state values case equality fuses to the same program as ==, but
// takes the CaseEq path in EvalBits — both sides must agree anyway.
func withCaseEq(choices []bpChoice) []bpChoice {
	flip := false
	for i := range choices {
		if choices[i].cond == "" {
			continue
		}
		if flip = !flip; flip {
			choices[i].cond = strings.Replace(choices[i].cond, "==", "===", 1)
		}
	}
	return choices
}

// checkStopEquivalence runs one breakpoint set on the default scheduler
// and on the reference and requires identical stop sequences, a fused
// program that actually ran on the default side and never on the
// reference, and a reference that skipped nothing; on the idle-core
// workload the default scheduler must also demonstrably skip work.
func checkStopEquivalence(t *testing.T, w *riscv.Workload, choices []bpChoice) *core.Runtime {
	t.Helper()
	reference, rtRef := runStops(t, w, choices, true)
	fused, rt := runStops(t, w, choices, false)
	if len(fused) != len(reference) {
		t.Fatalf("stop counts differ: default=%d reference=%d", len(fused), len(reference))
	}
	for i := range fused {
		if fused[i] != reference[i] {
			t.Fatalf("stop %d differs:\ndefault:   %s\nreference: %s", i, fused[i], reference[i])
		}
	}
	if rt.FusedRuns() == 0 {
		t.Fatal("fused whole-schedule program never executed")
	}
	if n := rtRef.FusedRuns(); n != 0 {
		t.Fatalf("reference executed the fused program %d times", n)
	}
	if skipped, _, _ := rtRef.ActivityStats(); skipped != 0 {
		t.Fatalf("reference skipped %d groups", skipped)
	}
	skipped, evaluated, _ := rt.ActivityStats()
	stats, _ := rt.FuseInfo()
	t.Logf("%s: %d stops over %d armed, skipped=%d evaluated=%d, fused %+v",
		w.Name, len(fused), len(rt.ListBreakpoints()), skipped, evaluated, stats)
	if w.Name == "mt-idle" && skipped == 0 && len(reference) > 0 {
		t.Error("idle-core workload skipped nothing")
	}
	return rt
}

// stopWorkloads are the differentials' RISC-V workloads, with the seed
// each draws its breakpoint sets from and its number of 16-choice
// rounds.
var stopWorkloads = []struct {
	name   string
	seed   uint64
	rounds int
}{
	{"towers", 0x9E3779B97F4A7C15, 2},
	{"vvadd", 0xBF58476D1CE4E5B9, 1},
	{"mt-idle", 0x94D049BB133111EB, 2},
}

// probeWorkload returns the named workload and a throwaway machine
// whose symbol table — identical for every machine of the workload —
// breakpoint choices are drawn from.
func probeWorkload(t *testing.T, name string) (*riscv.Workload, *riscv.Machine) {
	t.Helper()
	ws := workloadsByName()[name]
	if len(ws) == 0 {
		t.Fatalf("workload %s missing", name)
	}
	w := ws[0]
	probe, err := riscv.NewMachine(map[bool]int{true: 2, false: 1}[w.MT], false)
	if err != nil {
		t.Fatal(err)
	}
	return w, probe
}

// TestDeltaStopEquivalenceRISCV: randomized 16-choice breakpoint rounds
// (a third conditional, instance scoping mixed in, === in half the
// conditions) stop identically on the default scheduler and the
// EvalBits reference, and the idle-core workload skips work.
func TestDeltaStopEquivalenceRISCV(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	for _, tc := range stopWorkloads {
		w, probe := probeWorkload(t, tc.name)
		rnd := xorshift(tc.seed)
		for round := 0; round < tc.rounds; round++ {
			t.Run(fmt.Sprintf("%s/round%d", tc.name, round), func(t *testing.T) {
				checkStopEquivalence(t, w, withCaseEq(chooseBreakpoints(probe, rnd, 16, modCond)))
			})
		}
	}
}

// TestFusedStopEquivalenceRISCV: one randomized set of 100+ armed
// breakpoints per workload (=== in half the conditions) stops
// identically on the default scheduler and the EvalBits reference.
func TestFusedStopEquivalenceRISCV(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	for _, tc := range stopWorkloads {
		w, probe := probeWorkload(t, tc.name)
		t.Run(tc.name, func(t *testing.T) {
			choices := withCaseEq(chooseManyBreakpoints(t, probe, xorshift(tc.seed), 100))
			rt := checkStopEquivalence(t, w, choices)
			if n := len(rt.ListBreakpoints()); n < 100 {
				t.Fatalf("only %d breakpoints armed, want 100+", n)
			}
		})
	}
}

// TestGeneralEvalStopEquivalenceRISCV: randomized breakpoint sets in
// which every breakpoint carries a mixedCond condition stop identically
// on the default scheduler, where the conditions run as fused programs,
// and the EvalBits reference.
func TestGeneralEvalStopEquivalenceRISCV(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	for _, tc := range stopWorkloads {
		w, probe := probeWorkload(t, tc.name)
		t.Run(tc.name, func(t *testing.T) {
			rnd := xorshift(^tc.seed)
			checkStopEquivalence(t, w, allConditional(probe, rnd, chooseBreakpoints(probe, rnd, 24, mixedCond), mixedCond))
		})
	}
}
