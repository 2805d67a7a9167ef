package symtab_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fpu"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/riscv"
	"repro/internal/rtl"
	"repro/internal/symtab"
)

// TestCompileReproducible: compiling a design again emits the same
// Verilog and saves the same symbol table, byte for byte, in both
// builds. A symbol table from one compile must describe the trace of
// another; if the merge muxes (_GEN_n) were numbered in map order, one
// run's table would show the dcmp's lt under eq's name.
func TestCompileReproducible(t *testing.T) {
	designs := []struct {
		name  string
		build func() (*ir.Circuit, error)
	}{
		{"soc2", func() (*ir.Circuit, error) { return riscv.BuildSoC(2, "RV32Core", "SoC") }},
		{"fpu", func() (*ir.Circuit, error) { return fpu.BuildCircuit(true) }},
	}
	compile := func(t *testing.T, build func() (*ir.Circuit, error), debug bool) (string, []byte) {
		t.Helper()
		circ, err := build()
		if err != nil {
			t.Fatal(err)
		}
		comp, err := passes.Compile(circ, debug)
		if err != nil {
			t.Fatal(err)
		}
		verilog, err := rtl.VerilogString(comp.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		table, err := symtab.Build(comp)
		if err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := table.Save(&saved); err != nil {
			t.Fatal(err)
		}
		return verilog, saved.Bytes()
	}
	for _, d := range designs {
		for _, debug := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/debug=%v", d.name, debug), func(t *testing.T) {
				verilog, saved := compile(t, d.build, debug)
				for i := 1; i < 4; i++ {
					v, s := compile(t, d.build, debug)
					if v != verilog {
						t.Fatalf("recompile %d emitted different Verilog", i)
					}
					if !bytes.Equal(s, saved) {
						t.Fatalf("recompile %d saved a different symbol table", i)
					}
				}
			})
		}
	}
}
