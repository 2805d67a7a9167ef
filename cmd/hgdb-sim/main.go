// Command hgdb-sim simulates one of the packaged designs with the hgdb
// runtime attached and the debugging protocol served, playing the role
// of "commercial simulator with the hgdb shared object loaded" from the
// paper's Figure 1.
//
// Usage:
//
//	hgdb-sim -design counter|fpu|rocket [-debug] [-listen :9876]
//	         [-cycles N] [-vcd trace.vcd] [-symtab out.json] [-wait]
//
// -design rocket runs the vvadd workload on the generated RV32IM core.
// -wait holds the simulation until a debugger attaches and resumes it
// (set a breakpoint first, then `c`).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fpu"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/riscv"
	"repro/internal/rtl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

func main() {
	design := flag.String("design", "counter", "design to simulate: counter | fpu | rocket")
	debug := flag.Bool("debug", false, "compile in debug (unoptimized) mode")
	listen := flag.String("listen", "127.0.0.1:9876", "debug protocol listen address")
	cycles := flag.Int("cycles", 2000, "cycles to simulate")
	vcdPath := flag.String("vcd", "", "write a VCD trace to this file")
	symtabPath := flag.String("symtab", "", "write the symbol table (JSON) to this file")
	wait := flag.Bool("wait", false, "wait for a debugger before running")
	flag.Parse()

	circ, drive, err := buildDesign(*design)
	if err != nil {
		log.Fatalf("hgdb-sim: %v", err)
	}
	comp, err := passes.Compile(circ, *debug)
	if err != nil {
		log.Fatalf("hgdb-sim: compile: %v", err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		log.Fatalf("hgdb-sim: symtab: %v", err)
	}
	if *symtabPath != "" {
		f, err := os.Create(*symtabPath)
		if err != nil {
			log.Fatalf("hgdb-sim: %v", err)
		}
		if err := table.Save(f); err != nil {
			log.Fatalf("hgdb-sim: %v", err)
		}
		f.Close()
		log.Printf("symbol table written to %s (%s)", *symtabPath, table.Stats())
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		log.Fatalf("hgdb-sim: elaborate: %v", err)
	}
	s := sim.New(nl)

	var rec *vcd.Recorder
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatalf("hgdb-sim: %v", err)
		}
		defer f.Close()
		rec = vcd.NewRecorder(s, f)
	}

	rt, err := core.New(vpi.NewSimBackend(s), table)
	if err != nil {
		log.Fatalf("hgdb-sim: runtime: %v", err)
	}
	srv := server.New(rt, log.Default())
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("hgdb-sim: %v", err)
	}
	log.Printf("hgdb listening on %s (design %s, %s build, %s)",
		addr, *design, table.Mode(), nl.Stats())

	if *wait {
		log.Printf("waiting 30s for a debugger to attach...")
		time.Sleep(30 * time.Second)
	}
	start := time.Now()
	drive(s, *cycles)
	elapsed := time.Since(start)
	evals, stops := rt.Stats()
	skipped, evaluated, _ := rt.ActivityStats()
	log.Printf("simulated %d cycles in %s (%d bp evaluations, %d stops)",
		s.Time(), elapsed.Round(time.Millisecond), evals, stops)
	log.Printf("activity scheduling: %d groups skipped clean, %d evaluated",
		skipped, evaluated)
	if rec != nil {
		if err := rec.Flush(); err != nil {
			log.Fatalf("hgdb-sim: vcd: %v", err)
		}
		log.Printf("trace written to %s", *vcdPath)
	}
	srv.Close()
}

// buildDesign returns the High-form circuit and a testbench driver.
func buildDesign(name string) (*ir.Circuit, func(*sim.Simulator, int), error) {
	switch name {
	case "counter":
		c := generator.NewCircuit("Counter")
		m := c.NewModule("Counter")
		en := m.Input("en", ir.UIntType(1))
		out := m.Output("out", ir.UIntType(8))
		count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
		m.When(en, func() {
			count.Set(count.AddMod(m.Lit(1, 8)))
		})
		out.Set(count)
		circ, err := c.Build()
		return circ, func(s *sim.Simulator, cycles int) {
			s.Reset("Counter.reset", 2)
			s.Poke("Counter.en", 1)
			s.Run(cycles)
		}, err
	case "fpu":
		circ, err := fpu.BuildCircuit(true) // the seeded §4.2 bug
		return circ, func(s *sim.Simulator, cycles int) {
			vectors := []struct{ op, a, b uint64 }{
				{fpu.RmFLT, fpu.One, fpu.Two},
				{fpu.RmFEQ, fpu.One, fpu.One},
				{fpu.RmFEQ, fpu.QNaN, fpu.One}, // triggers the bug
				{fpu.RmFLE, fpu.NegOne, fpu.One},
			}
			s.Reset("FPToInt.reset", 2)
			for i := 0; i < cycles; i++ {
				v := vectors[i%len(vectors)]
				s.Poke("FPToInt.io_rm", v.op)
				s.Poke("FPToInt.io_in1", v.a)
				s.Poke("FPToInt.io_in2", v.b)
				s.Poke("FPToInt.io_wflags", 1)
				s.Step()
			}
		}, err
	case "rocket":
		circ, err := riscv.BuildSoC(1, "RV32Core", "SoC")
		return circ, func(s *sim.Simulator, cycles int) {
			w := pickWorkload("vvadd")
			for i, word := range w.Prog.Text {
				s.WriteMem("SoC.core0.imem", uint64(i), uint64(word))
			}
			for i, word := range w.Prog.Data {
				s.WriteMem("SoC.core0.dmem", uint64(i), uint64(word))
			}
			s.Reset("SoC.reset", 2)
			for i := 0; i < cycles; i++ {
				s.Step()
				if v, err := s.Peek("SoC.all_halted"); err == nil && v.IsTrue() {
					break
				}
			}
		}, err
	}
	return nil, nil, fmt.Errorf("unknown design %q (want counter, fpu, or rocket)", name)
}

func pickWorkload(name string) *riscv.Workload {
	for _, w := range riscv.Workloads() {
		if w.Name == name {
			return w
		}
	}
	panic("workload not found: " + name)
}
