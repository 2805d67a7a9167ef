// Package repro_test is the benchmark harness regenerating every
// quantitative artifact in the paper's evaluation (see DESIGN.md's
// experiment index):
//
//   - BenchmarkFig5: simulation time per workload per configuration
//     (Figure 5's bars; compare ns/op across /baseline, /hgdb, /debug,
//     /debug-hgdb sub-benchmarks).
//   - BenchmarkFig5Activity: the activity-driven scheduling extension —
//     per-edge debugger cost with armed breakpoints on low-activity
//     scenarios (a clock-gated idle core, sparse bursty traffic),
//     delta-scheduled vs exhaustive re-evaluation.
//   - BenchmarkSimStep: the simulator alone — one clock edge of a bare
//     two-core SoC, the denominator of every Figure 5 overhead.
//   - BenchmarkCallbackOverhead: the §4.3 mechanism — cost of the
//     clock-edge callback with no breakpoints inserted.
//   - BenchmarkSymtabSize: the §4.1 statistic (reported as custom
//     metrics: rows and netlist signals, optimized vs debug).
//   - BenchmarkSSA / BenchmarkCompile: compilation-pipeline ablations.
//   - BenchmarkEdgeVsChange: the §3 design choice of evaluating
//     breakpoints only at clock edges rather than on every change.
//   - BenchmarkParallelEval: §3.2's parallel group evaluation, run as
//     one fused pass over every member.
//
// Run: go test -bench=. -benchmem .
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/replay"
	"repro/internal/riscv"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// fig5Configs mirrors the paper's four bars per workload.
var fig5Configs = []struct {
	name string
	cfg  bench.Config
}{
	{"baseline", bench.Baseline},
	{"hgdb", bench.BaselineHgdb},
	{"debug", bench.Debug},
	{"debug-hgdb", bench.DebugHgdb},
}

// BenchmarkFig5 regenerates Figure 5. The per-iteration work is one
// full validated execution of the workload (machine construction
// excluded from timing via the harness measuring only the run).
func BenchmarkFig5(b *testing.B) {
	for _, w := range riscv.Workloads() {
		w := w
		for _, c := range fig5Configs {
			c := c
			b.Run(w.Name+"/"+c.name, func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					secs, res, err := bench.RunWorkload(w, c.cfg, 1)
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
					_ = secs
				}
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}

// BenchmarkFig5Activity measures the per-edge debugger cost that
// activity-driven scheduling removes, on the two low-activity Figure 5
// scenarios:
//
//   - idle-core: a two-core SoC where hart 1 halts immediately (its
//     registers are clock-gated from then on) while hart 0 spins
//     forever; breakpoints are armed on the idle core only. With
//     delta scheduling their per-edge cost collapses to one batched
//     read of the dependency union diffed against the cache;
//     exhaustive evaluation re-runs every condition each edge.
//   - bursty: a counter whose enable pulses one cycle in 64, with an
//     armed never-true condition — sparse bursty traffic where almost
//     every edge leaves the dependency set untouched.
//
// Compare ns/op and the evals/edge metric across /delta vs
// /exhaustive within a scenario; stop sequences are pinned equal by
// TestDeltaStopEquivalenceRISCV in internal/bench.
func BenchmarkFig5Activity(b *testing.B) {
	schedModes := []struct {
		name       string
		exhaustive bool
	}{{"delta", false}, {"exhaustive", true}}

	b.Run("idle-core", func(b *testing.B) {
		prog := parkHart1Prog()
		for _, mode := range schedModes {
			mode := mode
			b.Run(mode.name, func(b *testing.B) {
				m, err := riscv.NewMachine(2, false)
				if err != nil {
					b.Fatal(err)
				}
				rt, err := core.New(vpi.NewSimBackend(m.Sim), m.Table)
				if err != nil {
					b.Fatal(err)
				}
				rt.SetExhaustiveEval(mode.exhaustive)
				rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
				// Arm every conditional statement of the idle core.
				armed := 0
				for _, f := range m.Table.Files() {
					for _, l := range m.Table.Lines(f) {
						for _, bp := range m.Table.BreakpointsAt(f, l) {
							if bp.InstanceName == "SoC.core1" && bp.Enable != "" {
								if _, err := rt.AddBreakpointInstance(f, l, "SoC.core1", "pc == 0xfffc"); err == nil {
									armed++
								}
								break
							}
						}
					}
				}
				if armed == 0 {
					b.Fatal("no breakpoint armed on the idle core")
				}
				for i := range m.Cores {
					if err := m.Load(i, prog); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Reset(); err != nil {
					b.Fatal(err)
				}
				m.Sim.Run(50) // hart 1 reaches its ecall and gates off
				// Steady-state metrics only: snapshot the counters so
				// warmup evaluations don't pollute evals/edge.
				evals0, _ := rt.Stats()
				skipped0, evaluated0, _ := rt.ActivityStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Sim.Step()
				}
				b.StopTimer()
				evals, _ := rt.Stats()
				skipped, evaluated, _ := rt.ActivityStats()
				b.ReportMetric(float64(evals-evals0)/float64(b.N), "evals/edge")
				b.ReportMetric(float64(skipped-skipped0), "groups-skipped")
				b.ReportMetric(float64(evaluated-evaluated0), "groups-evaluated")
			})
		}
	})

	b.Run("bursty", func(b *testing.B) {
		for _, mode := range schedModes {
			mode := mode
			b.Run(mode.name, func(b *testing.B) {
				s, table := buildCounterBench(b, false)
				rt, err := core.New(vpi.NewSimBackend(s), table)
				if err != nil {
					b.Fatal(err)
				}
				rt.SetExhaustiveEval(mode.exhaustive)
				rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
				files := table.Files()
				lines := table.Lines(files[0])
				if _, err := rt.AddBreakpoint(files[0], lines[0], "count == 70000"); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// One enabled cycle in 64: sparse bursts.
					if i%64 == 0 {
						s.Poke("Counter.en", 1)
					} else if i%64 == 1 {
						s.Poke("Counter.en", 0)
					}
					s.Step()
				}
				b.StopTimer()
				evals, _ := rt.Stats()
				skipped, _, _ := rt.ActivityStats()
				b.ReportMetric(float64(evals)/float64(b.N), "evals/edge")
				b.ReportMetric(float64(skipped), "groups-skipped")
			})
		}
	})
}

// parkHart1Prog is the idle-core program: hart 1 parks immediately
// (its registers are clock-gated from then on) while hart 0 keeps
// toggling registers, so the design as a whole stays active.
func parkHart1Prog() *riscv.Program {
	return riscv.MustAssemble(`
.text
    li sp, 0x20000
    csrrs t0, 0xF14, x0
    bnez t0, park
busy:
    addi t1, t1, 1
    addi t2, t2, 2
    j busy
park:
    ecall
`)
}

// parkedSoC is a two-core SoC running parkHart1Prog, out of reset
// and past hart 1's ecall.
func parkedSoC(tb testing.TB, debug bool) *riscv.Machine {
	tb.Helper()
	m, err := riscv.NewMachine(2, debug)
	if err != nil {
		tb.Fatal(err)
	}
	prog := parkHart1Prog()
	for i := range m.Cores {
		if err := m.Load(i, prog); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.Reset(); err != nil {
		tb.Fatal(err)
	}
	m.Sim.Run(50)
	return m
}

// BenchmarkSimStep measures the simulator alone, the ceiling every
// live-simulation throughput sits under: one clock edge of a bare
// two-core SoC (no debugger) with hart 1 parked and hart 0 spinning,
// in the optimized and debug builds. An edge is one pass of the
// netlist's flat program (rtl.Program): settle, register next-values,
// memory writes and commits.
func BenchmarkSimStep(b *testing.B) {
	for _, build := range []struct {
		name  string
		debug bool
	}{{"optimized", false}, {"debug", true}} {
		b.Run(build.name, func(b *testing.B) {
			m := parkedSoC(b, build.debug)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Sim.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/edge")
		})
	}
}

// TestSimStepAllocs: a warm two-core SoC edge with an attach-only
// runtime installed (a live handler, nothing armed) allocates nothing.
func TestSimStepAllocs(t *testing.T) {
	m := parkedSoC(t, false)
	rt, err := core.New(vpi.NewSimBackend(m.Sim), m.Table)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Detach()
	rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
	m.Sim.Run(10)
	if allocs := testing.AllocsPerRun(1000, m.Sim.Step); allocs != 0 {
		t.Fatalf("a warm Step allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkFig5Fused measures the armed-breakpoint per-edge cost that
// whole-schedule fused compilation removes, at the scale the paper's
// Figure 5 debug bars pay it: a many-instance design with 128 armed
// conditional breakpoints (16 instances × 8 conditional statements)
// whose dependencies change every edge, so activity skipping never
// parks anything and the full armed set is evaluated each cycle.
//
// Compare ns/op across /fused (one fused program pass per edge on the
// simulation goroutine) and /exhaustive (the EvalBits reference: no
// prefetch, no fusion, no skipping). Stop sequences are pinned
// bit-identical by TestFusedStopEquivalenceRISCV and the internal/core
// fused differentials; this benchmark only reports cost. The fused
// shape (conditions, prelude instructions, the instruction runs the
// prelude saves, union slots read, instructions per full run) is
// reported as metrics on the /fused run.
//
// debugger-ns/edge is ns/op less the edge of a bare build of the same
// design, stepped with the same inputs in batches interleaved with the
// attached ones (off the timer), so host drift lands on both sides of
// the difference.
func BenchmarkFig5Fused(b *testing.B) {
	for _, mode := range []struct {
		name      string
		cond      string
		configure func(*core.Runtime)
	}{
		{"fused", fig5FusedCond, func(*core.Runtime) {}},
		{"exhaustive", fig5FusedCond, func(rt *core.Runtime) { rt.SetExhaustiveEval(true) }},
		// The same cost with a literal-arm ?: (arms of different types)
		// as each user condition, which fuses because a breakpoint
		// reads only its truth.
		{"fused-ternary", "acc %% 13 == 77 ? acc ^ %d : 0", func(*core.Runtime) {}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			s, rt := buildFig5FusedBench(b, mode.cond)
			mode.configure(rt)
			bare, _ := fig5FusedDesign(b)
			drive := func(s *sim.Simulator, from, to int) {
				for i := from; i < to; i++ {
					// A fresh input every edge keeps every condition's
					// dependency set dirty: no park, full armed cost.
					s.Poke("Top.x", uint64(i%255)+1)
					s.Step()
				}
			}
			const batch = 4096
			var bareTime time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				to := min(i+batch, b.N)
				drive(s, i, to)
				b.StopTimer()
				start := time.Now()
				drive(bare, i, to)
				bareTime += time.Since(start)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64((b.Elapsed()-bareTime).Nanoseconds())/float64(b.N), "debugger-ns/edge")
			evals, _ := rt.Stats()
			b.ReportMetric(float64(evals)/float64(b.N), "evals/edge")
			if stats, ok := rt.FuseInfo(); ok && mode.name != "exhaustive" {
				b.ReportMetric(float64(stats.Conds), "fused-conds")
				b.ReportMetric(float64(stats.SharedSegs), "cse-segs")
				b.ReportMetric(float64(stats.SharedReads), "cse-reads")
				b.ReportMetric(float64(stats.Operands), "operands")
				b.ReportMetric(float64(stats.Instrs), "instrs")
			}
		})
	}
}

// fig5FusedCond is the BenchmarkFig5Fused workload's user condition, a
// format taking the statement's number. The first clause is identical
// across an instance's 8 statements and reads the same acc slot, so
// the fuser hoists it once per instance; the second clause keeps each
// condition distinct. mod-13 can never equal 77, so no stop fires and
// the runs measure pure armed cost.
const fig5FusedCond = "acc %% 13 == 77 && acc[3:0] != %d"

// buildFig5FusedBench builds the BenchmarkFig5Fused workload: the
// 16-instance design with 128 armed breakpoints, each conditioned on
// cond (a format taking the statement's number) that must never hold.
// Shared with TestFig5FusedRef, the CI cost gate.
func buildFig5FusedBench(tb testing.TB, cond string) (*sim.Simulator, *core.Runtime) {
	s, table := fig5FusedDesign(tb)
	rt, err := core.New(vpi.NewSimBackend(s), table)
	if err != nil {
		tb.Fatal(err)
	}
	// Arm every conditional Leaf statement across all instances, each
	// with a never-true user condition sharing structure with its
	// siblings (same source per statement across the 16 instances, a
	// common "acc"-over-the-same-slot shape within each instance).
	armed := 0
	stmt := 0
	for _, f := range table.Files() {
		for _, l := range table.Lines(f) {
			bps := table.BreakpointsAt(f, l)
			if len(bps) == 0 || bps[0].Enable == "" {
				continue
			}
			ids, err := rt.AddBreakpoint(f, l, fmt.Sprintf(cond, stmt))
			if err != nil {
				tb.Fatal(err)
			}
			armed += len(ids)
			stmt++
		}
	}
	if armed < 100 {
		tb.Fatalf("armed %d breakpoints, want 100+", armed)
	}
	rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
	return s, rt
}

// fig5FusedDesign builds BenchmarkFig5Fused's design, with no debugger
// attached: 16 instances of 8 nested conditional statements each.
func fig5FusedDesign(tb testing.TB) (*sim.Simulator, *symtab.Table) {
	const nInst = 16
	const nStmts = 8
	c := generator.NewCircuit("Top")
	child := c.NewModule("Leaf")
	d := child.Input("d", ir.UIntType(8))
	q := child.Output("q", ir.UIntType(8))
	acc := child.RegInit("acc", ir.UIntType(8), child.Lit(0, 8))
	// Nested conditionals: statement j's SSA enable is the chain
	// d[0] && … && d[j], so the instance's 8 enables share nested
	// prefixes — the cross-condition structure the fuser's CSE
	// hoists into the shared prelude.
	var nest func(j int)
	nest = func(j int) {
		if j >= nStmts {
			return
		}
		child.When(d.Bit(j), func() {
			acc.Set(acc.AddMod(child.Lit(uint64(j+1), 8)))
			nest(j + 1)
		})
	}
	nest(0)
	q.Set(acc)
	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	sum := top.Wire("s", ir.UIntType(8))
	sum.Set(top.Lit(0, 8))
	for i := 0; i < nInst; i++ {
		u := top.Instance("u"+string(rune('a'+i)), child)
		u.IO("d").Set(x)
		sum.Set(sum.AddMod(u.IO("q")))
	}
	y.Set(sum)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		tb.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		tb.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		tb.Fatal(err)
	}
	return sim.New(nl), table
}

// buildCounterNetlist makes a small design for microbenchmarks.
func buildCounterBench(b *testing.B, debug bool) (*sim.Simulator, *symtab.Table) {
	b.Helper()
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(16))
	count := m.RegInit("count", ir.UIntType(16), m.Lit(0, 16))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 16)))
	})
	out.Set(count)
	comp, err := passes.Compile(c.MustBuild(), debug)
	if err != nil {
		b.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	return sim.New(nl), table
}

// BenchmarkCallbackOverhead isolates the §4.3 claim's mechanism: the
// per-cycle cost of hgdb's clock callback when no breakpoint is
// inserted, versus no callback at all, versus an armed breakpoint whose
// condition never fires.
func BenchmarkCallbackOverhead(b *testing.B) {
	b.Run("no-hgdb", func(b *testing.B) {
		s, _ := buildCounterBench(b, false)
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("hgdb-attached", func(b *testing.B) {
		s, table := buildCounterBench(b, false)
		rt, err := core.New(vpi.NewSimBackend(s), table)
		if err != nil {
			b.Fatal(err)
		}
		rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("armed-never-hit", func(b *testing.B) {
		s, table := buildCounterBench(b, false)
		rt, err := core.New(vpi.NewSimBackend(s), table)
		if err != nil {
			b.Fatal(err)
		}
		rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
		files := table.Files()
		if len(files) == 0 {
			b.Fatal("no files")
		}
		lines := table.Lines(files[0])
		// Condition is never true: evaluated every matching cycle, no
		// stop.
		if _, err := rt.AddBreakpoint(files[0], lines[0], "count == 70000"); err != nil {
			b.Fatal(err)
		}
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
}

// scaleDesign builds a synthetic design of n source statements whose
// simulation cost does not grow with n: statement k (line k of
// scale.go) connects the input x to the output, and under last-connect
// semantics the netlist keeps one assignment while the symbol table
// keeps n breakable statements. The statements' locators are built
// directly: generator locators come from runtime.Callers, so a
// generator loop would give every statement the same line.
func scaleDesign(tb testing.TB, n int) (*sim.Simulator, *symtab.Table) {
	tb.Helper()
	body := make([]ir.Stmt, n)
	for k := range body {
		body[k] = &ir.Connect{
			Loc:   ir.Ref{Name: "out"},
			Value: ir.Ref{Name: "x"},
			Info:  ir.Info{File: "scale.go", Line: k + 1},
		}
	}
	circ := &ir.Circuit{Main: "Scale", Modules: []*ir.Module{{
		Name: "Scale",
		Ports: []ir.Port{
			{Name: "clock", Dir: ir.Input, Tpe: ir.ClockType()},
			{Name: "reset", Dir: ir.Input, Tpe: ir.ResetType()},
			{Name: "x", Dir: ir.Input, Tpe: ir.UIntType(16)},
			{Name: "out", Dir: ir.Output, Tpe: ir.UIntType(16)},
		},
		Body: body,
	}}}
	comp, err := passes.Compile(circ, false)
	if err != nil {
		tb.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		tb.Fatal(err)
	}
	if got := len(table.AllBreakpoints()); got != n {
		tb.Fatalf("scale design has %d statements, want %d", got, n)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		tb.Fatal(err)
	}
	return sim.New(nl), table
}

// BenchmarkArmedScale measures what an armed edge costs the debugger as
// the design grows: synthetic designs of 100, 1,000 and 10,000
// statements (scaleDesign) with one never-true breakpoint armed on the
// last one. In
// the busy leg its input changes at every edge, so the condition
// re-evaluates; in the parked leg the input is frozen, so the
// condition parks. debugger-ns/edge is the cost with hgdb attached
// minus the same design's edge without hgdb; ns/op is the attached
// edge.
func BenchmarkArmedScale(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, leg := range []struct {
			name string
			busy bool
		}{{"busy", true}, {"parked", false}} {
			b.Run(fmt.Sprintf("%d/%s", n, leg.name), func(b *testing.B) {
				drive := func(s *sim.Simulator, edges int) time.Duration {
					start := time.Now()
					for i := 0; i < edges; i++ {
						if leg.busy {
							s.Poke("Scale.x", uint64(i&0x7fff))
						}
						s.Step()
					}
					return time.Since(start)
				}
				bare, _ := scaleDesign(b, n)
				s, table := scaleDesign(b, n)
				rt, err := core.New(vpi.NewSimBackend(s), table)
				if err != nil {
					b.Fatal(err)
				}
				rt.SetHandler(func(*core.StopEvent) core.Command { return core.CmdContinue })
				if _, err := rt.AddBreakpoint("scale.go", n, "x == 65535"); err != nil {
					b.Fatal(err)
				}
				drive(bare, 64) // warm both: the first edges evaluate
				drive(s, 64)
				bareNS := float64(drive(bare, b.N).Nanoseconds()) / float64(b.N)
				b.ResetTimer()
				attached := drive(s, b.N)
				b.StopTimer()
				if _, stops := rt.Stats(); stops != 0 {
					b.Fatalf("%d stops on a never-true condition", stops)
				}
				b.ReportMetric(float64(attached.Nanoseconds())/float64(b.N)-bareNS, "debugger-ns/edge")
			})
		}
	}
}

// BenchmarkSymtabSize reports the §4.1 statistic as metrics.
func BenchmarkSymtabSize(b *testing.B) {
	b.Run("soc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt, err := riscv.NewMachine(1, false)
			if err != nil {
				b.Fatal(err)
			}
			dbg, err := riscv.NewMachine(1, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(opt.Table.TotalRows()), "rows-opt")
			b.ReportMetric(float64(dbg.Table.TotalRows()), "rows-debug")
			b.ReportMetric(float64(opt.Sim.Netlist().NumSignals()), "signals-opt")
			b.ReportMetric(float64(dbg.Sim.Netlist().NumSignals()), "signals-debug")
		}
	})
}

// BenchmarkCompile measures the full pipeline (Algorithm 1 included) on
// the SoC, optimized vs debug.
func BenchmarkCompile(b *testing.B) {
	for _, mode := range []struct {
		name  string
		debug bool
	}{{"optimized", false}, {"debug", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				circ, err := riscv.BuildSoC(1, "RV32Core", "SoC")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := passes.Compile(circ, mode.debug); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSSA isolates the Listing 1 → Listing 2 transform on a
// synthetic module with many conditional assignments.
func BenchmarkSSA(b *testing.B) {
	build := func() *ir.Circuit {
		c := generator.NewCircuit("S")
		m := c.NewModule("S")
		data := m.Input("data", ir.UIntType(64))
		out := m.Output("out", ir.UIntType(8))
		sum := m.Wire("sum", ir.UIntType(8))
		sum.Set(m.Lit(0, 8))
		for i := 0; i < 64; i++ {
			i := i
			m.When(data.Bit(i), func() {
				sum.Set(sum.AddMod(m.Lit(uint64(i), 8)))
			})
		}
		out.Set(sum)
		return c.MustBuild()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := passes.NewCompilation(build(), false)
		for _, p := range []passes.Pass{
			&passes.LowerAggregates{}, &passes.Annotate{}, &passes.SSA{},
		} {
			if err := p.Run(comp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEdgeVsChange quantifies the §3 design decision: checking
// breakpoints once per clock edge versus on every signal value change
// (what a naive value-callback implementation would do). The per-change
// variant pays the change-tracking snapshot plus one check per changed
// signal per cycle.
func BenchmarkEdgeVsChange(b *testing.B) {
	checkCost := func(s *sim.Simulator) func() {
		return func() {
			// Stand-in for one breakpoint evaluation.
			s.Peek("Counter.count")
		}
	}
	b.Run("per-edge", func(b *testing.B) {
		s, _ := buildCounterBench(b, false)
		check := checkCost(s)
		s.OnClockEdge(func(uint64) { check() })
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("per-change", func(b *testing.B) {
		s, _ := buildCounterBench(b, false)
		check := checkCost(s)
		s.OnChange(func(*rtl.Signal, eval.Value) { check() })
		s.Poke("Counter.en", 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
}

// --- Trace index & checkpointed replay (§3.3 replay backend) ---
//
// The workload for the benchmarks below is a real generated RISC-V
// trace: the full optimized SoC running the vvadd kernel with every
// signal recorded. They measure the streaming block store
// (vcd.ParseStore + checkpointed replay.Engine) on parse memory,
// value-at-time latency, reverse-step latency and store open.
// DESIGN.md "Trace index & checkpointing" records reference numbers,
// including those of the retired eager parser and seed engine.

var (
	replayTraceOnce sync.Once
	replayTraceData []byte
	replayTraceErr  error
)

// riscvTraceVCD records the vvadd workload on the one-core optimized
// SoC once per process and returns the VCD text.
func riscvTraceVCD(b *testing.B) []byte {
	b.Helper()
	replayTraceOnce.Do(func() {
		m, err := riscv.NewMachine(1, false)
		if err != nil {
			replayTraceErr = err
			return
		}
		var w *riscv.Workload
		for _, cand := range riscv.Workloads() {
			if cand.Name == "vvadd" {
				w = cand
			}
		}
		if w == nil {
			replayTraceErr = fmt.Errorf("vvadd workload not found")
			return
		}
		var buf bytes.Buffer
		rec := vcd.NewRecorder(m.Sim, &buf)
		if _, err := m.RunProgram(w.Prog, w.MaxCycles); err != nil {
			replayTraceErr = err
			return
		}
		if err := rec.Flush(); err != nil {
			replayTraceErr = err
			return
		}
		replayTraceData = buf.Bytes()
	})
	if replayTraceErr != nil {
		b.Fatal(replayTraceErr)
	}
	return replayTraceData
}

// BenchmarkTraceParse measures parsing the RISC-V trace. Allocation
// volume (B/op with -benchmem) is the peak memory; the retained
// change-data footprint (varint blocks plus the sparse per-signal
// block index) is reported as the data-bytes metric.
func BenchmarkTraceParse(b *testing.B) {
	data := riscvTraceVCD(b)
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(st.IndexBytes()), "data-bytes")
				b.ReportMetric(float64(st.NumChanges()), "changes")
			}
		}
	})
}

// BenchmarkStoreOpen pins the disk-backed store's reason to exist:
// opening a pre-indexed trace reads the header and metadata sections
// only — no VCD text scan, no block decode — so open latency and
// resident memory are compared directly against ParseStore rebuilding
// the same index from text. The resident-bytes metric is the retained
// change-data footprint right after open (for the disk store: block
// directory plus an empty cache; blocks stay on disk until queried).
// DESIGN.md records reference numbers; the acceptance bar is >=10x
// faster open with lower resident memory.
func BenchmarkStoreOpen(b *testing.B) {
	data := riscvTraceVCD(b)
	dir := b.TempDir()
	vcdPath := filepath.Join(dir, "trace.vcd")
	storePath := filepath.Join(dir, "trace.hgdbstore")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		b.Fatal(err)
	}
	stats, err := vcd.IndexFile(vcdPath, storePath, vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse-vcd", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(st.IndexBytes()), "resident-bytes")
			}
		}
	})
	b.Run("open-store", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(stats.Bytes)
		for i := 0; i < b.N; i++ {
			st, err := vcd.OpenStoreFile(storePath, vcd.OpenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(st.IndexBytes()), "resident-bytes")
			}
			st.Close()
		}
	})
	// Guard against benchmarking a broken open: the opened store must
	// answer a probe query identically to the parsed one.
	mem, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	disk, err := vcd.OpenStoreFile(storePath, vcd.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for _, name := range traceQuerySet(mem.SignalNames()) {
		ms, _ := mem.Signal(name)
		ds, ok := disk.Signal(name)
		if !ok {
			b.Fatalf("opened store missing %s", name)
		}
		for _, tm := range []uint64{0, mem.MaxTime / 2, mem.MaxTime} {
			if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
				b.Fatalf("%s@%d: disk %d, mem %d", name, tm, got, want)
			}
		}
	}
}

// traceQuerySet picks a deterministic spread of signals for value
// queries: every 7th signal name, which mixes hot (clock, pc) and cold
// scopes.
func traceQuerySet(names []string) []string {
	var out []string
	for i := 0; i < len(names); i += 7 {
		out = append(out, names[i])
	}
	return out
}

// BenchmarkTraceValueAt measures random-access value-at-time queries:
// the store's lazy path (sparse block index + one block decode), and
// the store after materializing the query set (binary search over
// timelines decoded on demand).
func BenchmarkTraceValueAt(b *testing.B) {
	data := riscvTraceVCD(b)
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	names := traceQuerySet(st.SignalNames())
	maxT := st.MaxTime
	// xorshift keeps query times deterministic without pulling in rand.
	next := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		next ^= next << 13
		next ^= next >> 7
		next ^= next << 17
		return next
	}
	b.Run("store-lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts, _ := st.Signal(names[i%len(names)])
			ts.ValueAt(rnd() % (maxT + 1))
		}
	})
	b.Run("store-materialized", func(b *testing.B) {
		st.Materialize(names...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts, _ := st.Signal(names[i%len(names)])
			ts.ValueAt(rnd() % (maxT + 1))
		}
	})
}

// BenchmarkReplayReverseStep measures sequential reverse stepping — the
// debugger's reverse-execution inner loop — at increasing trace depths:
// each op is one StepBackward plus a full-state signal read. The
// checkpointed restore averages O(checkpoint interval / 2) records per
// step regardless of depth; the same engine with checkpoints disabled
// replays from t=0 every step (O(t)). Compare /t25 vs /t50 vs /t100
// (percent of trace depth) within each: checkpointed stays flat,
// no-checkpoint scales linearly.
func BenchmarkReplayReverseStep(b *testing.B) {
	data := riscvTraceVCD(b)
	// A mid-hierarchy register that is not in any dependency union, so
	// reading it exercises full-state reconstruction on the store.
	probe := "SoC.core0.pc"
	depths := []struct {
		name string
		frac uint64 // rewind depth t = MaxTime / frac
	}{{"t25", 4}, {"t50", 2}, {"t100", 1}}
	engines := []struct {
		name string
		make func(b *testing.B) *replay.Engine
	}{
		{"checkpointed", func(b *testing.B) *replay.Engine {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return replay.NewStore(st)
		}},
		{"no-checkpoint", func(b *testing.B) *replay.Engine {
			st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			// An interval beyond the trace end means every backward
			// seek restores the time-0 state and replays forward — the
			// un-checkpointed block-store baseline.
			return replay.NewStore(st, replay.WithCheckpointInterval(st.MaxTime+1))
		}},
	}
	for _, eng := range engines {
		for _, d := range depths {
			b.Run(eng.name+"/"+d.name, func(b *testing.B) {
				e := eng.make(b)
				tm := e.MaxTime() / d.frac
				if tm == 0 {
					b.Skip("trace too short")
				}
				// Warm: a forward read at depth populates checkpoints.
				e.SetTime(tm)
				if _, err := e.GetValue(probe); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.Time() == 0 {
						e.SetTime(tm)
					}
					e.StepBackward()
					if _, err := e.GetValue(probe); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReplaySeek measures random seeks on the vvadd store: one op
// is a SetTime to a random cycle plus a read of a signal outside any
// dependency union, which syncs the full replay state. One warm sweep
// to the trace end first takes every checkpoint, so a seek in either
// direction restores the latest checkpoint at or before its target and
// replays at most one interval of records.
func BenchmarkReplaySeek(b *testing.B) {
	data := riscvTraceVCD(b)
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eng := replay.NewStore(st)
	const probe = "SoC.core0.pc"
	maxT := eng.MaxTime()
	eng.SetTime(maxT)
	if _, err := eng.GetValue(probe); err != nil {
		b.Fatal(err)
	}
	// xorshift keeps seek targets deterministic without pulling in rand.
	next := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next ^= next << 13
		next ^= next >> 7
		next ^= next << 17
		eng.SetTime(next % (maxT + 1))
		if _, err := eng.GetValue(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayReverseContinue measures the runtime's reverse-continue
// walk over the whole RISC-V trace: one op starts at the last cycle and
// walks back to the entry stop in cycle 0, with one breakpoint armed
// that never hits (the taken-branch statement of core0, on a pc value
// the core never holds). cycle-ns is the walk's cost per trace cycle.
func BenchmarkReplayReverseContinue(b *testing.B) {
	data := riscvTraceVCD(b)
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		b.Fatal(err)
	}
	eng := replay.NewStore(st)
	rt, err := core.New(eng, m.Table)
	if err != nil {
		b.Fatal(err)
	}
	armed := false
	for _, bp := range m.Table.AllBreakpoints() {
		if bp.InstanceName == "SoC.core0" && bp.EnableSrc == "(isBranch & taken)" {
			_, err := rt.AddBreakpointInstance(bp.Filename, bp.Line, bp.InstanceName, "pc == 2")
			armed = err == nil
			break
		}
	}
	if !armed {
		b.Fatal("no taken-branch statement in SoC.core0")
	}
	landings := 0
	rt.SetHandler(func(ev *core.StopEvent) core.Command {
		if ev.Reverse {
			if ev.Time != 0 {
				b.Fatalf("reverse-continue landed at t=%d, want the entry", ev.Time)
			}
			landings++
			return core.CmdContinue
		}
		return core.CmdReverseContinue
	})
	end := eng.MaxTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SetTime(end - 1)
		rt.InterruptNext()
		eng.StepForward()
	}
	b.StopTimer()
	if landings != b.N {
		b.Fatalf("%d landings in %d walks", landings, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*end), "cycle-ns")
}

// BenchmarkParallelEval measures the §3.2 parallel group evaluation on
// a many-instance design where every instance hits the same line; the
// members' conditions run as one fused pass on the simulation goroutine.
func BenchmarkParallelEval(b *testing.B) {
	buildMany := func(n int) (*sim.Simulator, *core.Runtime, string, int) {
		c := generator.NewCircuit("Top")
		child := c.NewModule("Leaf")
		d := child.Input("d", ir.UIntType(8))
		q := child.Output("q", ir.UIntType(8))
		acc := child.RegInit("acc", ir.UIntType(8), child.Lit(0, 8))
		child.When(d.Bit(0), func() {
			acc.Set(acc.AddMod(d))
		})
		q.Set(acc)
		top := c.NewModule("Top")
		x := top.Input("x", ir.UIntType(8))
		y := top.Output("y", ir.UIntType(8))
		sum := top.Wire("s", ir.UIntType(8))
		sum.Set(top.Lit(0, 8))
		for i := 0; i < n; i++ {
			u := top.Instance("u"+string(rune('a'+i)), child)
			u.IO("d").Set(x)
			sum.Set(sum.AddMod(u.IO("q")))
		}
		y.Set(sum)
		comp, err := passes.Compile(c.MustBuild(), false)
		if err != nil {
			b.Fatal(err)
		}
		table, err := symtab.Build(comp)
		if err != nil {
			b.Fatal(err)
		}
		nl, err := rtl.Elaborate(comp.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		s := sim.New(nl)
		rt, err := core.New(vpi.NewSimBackend(s), table)
		if err != nil {
			b.Fatal(err)
		}
		// The accumulate line is the only conditional breakpoint in the
		// Leaf module's file list.
		var file string
		var line int
		for _, f := range table.Files() {
			for _, l := range table.Lines(f) {
				for _, bp := range table.BreakpointsAt(f, l) {
					if bp.Enable != "" {
						file, line = f, l
					}
				}
			}
		}
		return s, rt, file, line
	}
	for _, n := range []int{2, 8, 16} {
		n := n
		b.Run(string(rune('0'+n/10))+string(rune('0'+n%10))+"-instances", func(b *testing.B) {
			s, rt, file, line := buildMany(n)
			if _, err := rt.AddBreakpoint(file, line, ""); err != nil {
				b.Fatal(err)
			}
			stops := 0
			rt.SetHandler(func(ev *core.StopEvent) core.Command {
				stops += len(ev.Threads)
				return core.CmdContinue
			})
			s.Poke("Top.x", 3) // odd: every instance hits each cycle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			if stops == 0 {
				b.Fatal("no threads evaluated")
			}
		})
	}
}
