package replay

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/riscv"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/vcd"
)

// liveRecording is a recorded simulation with its ground truth: the VCD
// text a Recorder wrote, and what sim.Peek read for every signal at
// every clock edge — the values the debugger saw live.
type liveRecording struct {
	vcd   []byte
	names []string   // every signal, netlist order
	edges [][]uint64 // edges[t][i]: names[i] as the edge at time t read it
}

// recordLive attaches a Recorder and a per-edge sampler to a fresh
// simulator of nl, runs the test bench, and returns the recording.
func recordLive(t testing.TB, nl *rtl.Netlist, bench func(s *sim.Simulator)) *liveRecording {
	t.Helper()
	s := sim.New(nl)
	var buf bytes.Buffer
	rec := vcd.NewRecorder(s, &buf)
	lr := &liveRecording{}
	for _, sig := range nl.Signals {
		lr.names = append(lr.names, sig.Name)
	}
	s.OnClockEdge(func(tm uint64) {
		if tm != uint64(len(lr.edges)) {
			t.Fatalf("edge at %d after %d edges", tm, len(lr.edges))
		}
		vals := make([]uint64, len(lr.names))
		for i, name := range lr.names {
			v, err := s.Peek(name)
			if err != nil {
				t.Fatal(err)
			}
			vals[i] = v.Bits
		}
		lr.edges = append(lr.edges, vals)
	})
	bench(s)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	lr.vcd = buf.Bytes()
	return lr
}

// countTen is makeVCD's test bench: one reset cycle, then ten enabled
// cycles.
func countTen(s *sim.Simulator) {
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(10)
}

// togglingEnable drives the counter with its enable poked low and high
// again mid-run, so a poked input and the logic behind it change
// between edges.
func togglingEnable(s *sim.Simulator) {
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(5)
	s.Poke("Counter.en", 0)
	s.Run(3)
	s.Poke("Counter.en", 1)
	s.Run(3)
}

// twoLevelNetlist elaborates a top counter feeding two child
// accumulators: several scopes and widths.
func twoLevelNetlist(t testing.TB) *rtl.Netlist {
	t.Helper()
	c := generator.NewCircuit("Top")
	leaf := c.NewModule("Leaf")
	d := leaf.Input("d", ir.UIntType(8))
	q := leaf.Output("q", ir.UIntType(8))
	acc := leaf.RegInit("acc", ir.UIntType(8), leaf.Lit(0, 8))
	leaf.When(d.Bit(0), func() {
		acc.Set(acc.AddMod(d))
	})
	q.Set(acc)
	top := c.NewModule("Top")
	en := top.Input("en", ir.UIntType(1))
	out := top.Output("out", ir.UIntType(16))
	count := top.RegInit("count", ir.UIntType(16), top.Lit(0, 16))
	top.When(en, func() {
		count.Set(count.AddMod(top.Lit(1, 16)))
	})
	u0 := top.Instance("u0", leaf)
	u1 := top.Instance("u1", leaf)
	u0.IO("d").Set(count.Bits(7, 0))
	u1.IO("d").Set(count.Bits(8, 1))
	out.Set(count.AddMod(count.AddMod(u0.IO("q").Cat(u1.IO("q")))))
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

// TestReplayMatchesLiveSim is the live-vs-recorded differential: a
// Recorder on a running simulator → ParseStore → NewStore must read
// back what sim.Peek read at every clock edge, for every signal —
// forward by SetTime, backward by StepBackward, and forward again with
// every timeline materialized. The test benches poke inputs between
// edges, so a poked value (and the logic it drives) must be recorded
// at the edge that saw it, not one edge late.
func TestReplayMatchesLiveSim(t *testing.T) {
	t.Run("counter", func(t *testing.T) {
		checkReplayMatchesLive(t, recordLive(t, counterNetlist(t), togglingEnable))
	})
	t.Run("two-level", func(t *testing.T) {
		checkReplayMatchesLive(t, recordLive(t, twoLevelNetlist(t), func(s *sim.Simulator) {
			s.Reset("Top.reset", 1)
			s.Poke("Top.en", 1)
			s.Run(300)
		}))
	})
	t.Run("riscv", testReplayMatchesLiveRISCV)
}

// checkReplayMatchesLive replays rec through a store engine with
// default options and fails with every (signal, edge) whose replayed
// value differs from the live one.
func checkReplayMatchesLive(t *testing.T, rec *liveRecording) {
	t.Helper()
	st, err := vcd.ParseStore(bytes.NewReader(rec.vcd), vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewStore(st)
	if last := uint64(len(rec.edges) - 1); eng.MaxTime() < last {
		t.Fatalf("trace ends at %d, before the last edge at %d", eng.MaxTime(), last)
	}
	var bad []string
	check := func(pass string) {
		tm := eng.Time()
		for i, name := range rec.names {
			got, err := eng.GetValue(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := rec.edges[tm][i]; got.Bits != want {
				bad = append(bad, fmt.Sprintf("%s %s@%d = %d, live %d", pass, name, tm, got.Bits, want))
			}
		}
	}
	for tm := range rec.edges {
		if err := eng.SetTime(uint64(tm)); err != nil {
			t.Fatal(err)
		}
		check("forward")
	}
	for eng.StepBackward() {
		check("backward")
	}
	eng.Prefetch(rec.names)
	for tm := range rec.edges {
		eng.SetTime(uint64(tm))
		check("materialized")
	}
	if len(bad) > 0 {
		t.Fatalf("%d replayed values differ from the live run:\n%s", len(bad), strings.Join(bad, "\n"))
	}
}

// testReplayMatchesLiveRISCV runs the vvadd program twice on identical
// one-core SoCs: the first run is recorded, and the second compares
// every 7th signal (clock, pc and cold scopes alike) against the replay
// at each of its edges, so memory stays O(signals), not O(edges).
func testReplayMatchesLiveRISCV(t *testing.T) {
	var w *riscv.Workload
	for _, cand := range riscv.Workloads() {
		if cand.Name == "vvadd" {
			w = cand
		}
	}
	if w == nil {
		t.Fatal("vvadd workload not found")
	}
	run := func(out io.Writer, onEdge func(m *riscv.Machine, tm uint64)) {
		m, err := riscv.NewMachine(1, false)
		if err != nil {
			t.Fatal(err)
		}
		// Both runs record, so both settle after every edge alike.
		rec := vcd.NewRecorder(m.Sim, out)
		if onEdge != nil {
			m.Sim.OnClockEdge(func(tm uint64) { onEdge(m, tm) })
		}
		if _, err := m.RunProgram(w.Prog, w.MaxCycles); err != nil {
			t.Fatal(err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	run(&buf, nil)
	st, err := vcd.ParseStore(bytes.NewReader(buf.Bytes()), vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewStore(st)
	var names []string
	for i, name := range st.SignalNames() {
		if i%7 == 0 {
			names = append(names, name)
		}
	}
	var bad []string
	edges, mismatches := 0, 0
	run(io.Discard, func(m *riscv.Machine, tm uint64) {
		edges++
		if err := eng.SetTime(tm); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			live, err := m.Sim.Peek(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.GetValue(name)
			if err != nil {
				t.Fatal(err)
			}
			if got.Bits != live.Bits {
				if mismatches++; len(bad) < 20 {
					bad = append(bad, fmt.Sprintf("%s@%d = %d, live %d", name, tm, got.Bits, live.Bits))
				}
			}
		}
	})
	if edges < 1000 {
		t.Fatalf("only %d edges ran", edges)
	}
	if mismatches > 0 {
		t.Fatalf("%d replayed values differ from the live run; the first %d:\n%s",
			mismatches, len(bad), strings.Join(bad, "\n"))
	}
}
