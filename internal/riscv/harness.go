package riscv

import (
	"fmt"

	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
)

// Machine wraps a simulated SoC with program loading and result
// inspection for one or more cores.
type Machine struct {
	Sim   *sim.Simulator
	Top   string
	Cores []string // instance paths, e.g. "SoC.core0"
	// Table is the hgdb symbol table extracted during compilation.
	Table *symtab.Table
	// Comp is kept for inspection (symbol statistics etc.).
	Comp *passes.Compilation
}

// NewMachine compiles and elaborates an nCores SoC. debug selects the
// paper's unoptimized debug build.
func NewMachine(nCores int, debug bool) (*Machine, error) {
	circ, err := BuildSoC(nCores, "RV32Core", "SoC")
	if err != nil {
		return nil, err
	}
	comp, err := passes.Compile(circ, debug)
	if err != nil {
		return nil, err
	}
	table, err := symtab.Build(comp)
	if err != nil {
		return nil, err
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Sim:   sim.New(nl),
		Top:   "SoC",
		Table: table,
		Comp:  comp,
	}
	for i := 0; i < nCores; i++ {
		m.Cores = append(m.Cores, fmt.Sprintf("SoC.core%d", i))
	}
	return m, nil
}

// Load writes a program image into a core's instruction and data
// memories and zeroes its architectural state trackers.
func (m *Machine) Load(core int, prog *Program) error {
	if core < 0 || core >= len(m.Cores) {
		return fmt.Errorf("riscv: no core %d", core)
	}
	path := m.Cores[core]
	if len(prog.Text) > IMemWords {
		return fmt.Errorf("riscv: program text (%d words) exceeds imem", len(prog.Text))
	}
	if len(prog.Data) > DMemWords {
		return fmt.Errorf("riscv: program data (%d words) exceeds dmem", len(prog.Data))
	}
	for i, w := range prog.Text {
		if err := m.Sim.WriteMem(path+".imem", uint64(i), uint64(w)); err != nil {
			return err
		}
	}
	for i, w := range prog.Data {
		if err := m.Sim.WriteMem(path+".dmem", uint64(i), uint64(w)); err != nil {
			return err
		}
	}
	return nil
}

// Reset pulses reset for two cycles.
func (m *Machine) Reset() error {
	return m.Sim.Reset(m.Top+".reset", 2)
}

// RunResult summarizes one program execution.
type RunResult struct {
	Cycles   uint64
	Retired  []uint64 // per core
	Halted   bool
	CPIMilli []uint64 // CPI per core ×1000 (integer-friendly)
}

// Run steps until all cores halt or maxCycles elapse. The halt flag is
// resolved once and read by netlist index after every cycle.
func (m *Machine) Run(maxCycles int) (*RunResult, error) {
	start := m.Sim.Time()
	haltSig, ok := m.Sim.Netlist().Signal(m.Top + ".all_halted")
	if !ok {
		return nil, fmt.Errorf("riscv: no signal %s.all_halted", m.Top)
	}
	for i := 0; i < maxCycles; i++ {
		m.Sim.Step()
		if v, _ := m.Sim.PeekIndex(haltSig.Index); v.IsTrue() {
			break
		}
	}
	m.Sim.Settle()
	res := &RunResult{Cycles: m.Sim.Time() - start}
	halted, _ := m.Sim.PeekIndex(haltSig.Index)
	res.Halted = halted.IsTrue()
	for i := range m.Cores {
		r, err := m.Sim.Peek(fmt.Sprintf("%s.retired%d", m.Top, i))
		if err != nil {
			return nil, err
		}
		res.Retired = append(res.Retired, r.Bits)
		cpi := uint64(0)
		if r.Bits > 0 {
			cpi = res.Cycles * 1000 / r.Bits
		}
		res.CPIMilli = append(res.CPIMilli, cpi)
	}
	return res, nil
}

// ReadWord reads a word from a core's data memory by byte address.
func (m *Machine) ReadWord(core int, byteAddr uint32) (uint32, error) {
	v, err := m.Sim.ReadMem(m.Cores[core]+".dmem", uint64(byteAddr/4))
	return uint32(v), err
}

// WriteWord writes a word into a core's data memory by byte address.
func (m *Machine) WriteWord(core int, byteAddr uint32, v uint32) error {
	return m.Sim.WriteMem(m.Cores[core]+".dmem", uint64(byteAddr/4), uint64(v))
}

// ReadReg reads an architectural register.
func (m *Machine) ReadReg(core int, reg uint32) (uint32, error) {
	v, err := m.Sim.ReadMem(m.Cores[core]+".regs", uint64(reg))
	return uint32(v), err
}

// PC returns a core's current program counter.
func (m *Machine) PC(core int) (uint32, error) {
	v, err := m.Sim.Peek(m.Cores[core] + ".pc")
	return uint32(v.Bits), err
}

// RunProgram is the one-shot helper: load on every core, reset, run.
func (m *Machine) RunProgram(prog *Program, maxCycles int) (*RunResult, error) {
	for i := range m.Cores {
		if err := m.Load(i, prog); err != nil {
			return nil, err
		}
	}
	if err := m.Reset(); err != nil {
		return nil, err
	}
	return m.Run(maxCycles)
}
