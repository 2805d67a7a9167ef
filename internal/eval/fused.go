package eval

// This file implements the execution half of whole-schedule fused
// condition compilation: every armed breakpoint/watch condition of a
// debug session compiled into ONE register program (a MultiProg), run
// once per clock edge instead of once per condition group. The fuser
// (internal/expr) performs cross-condition CSE — subexpressions shared
// between conditions (same structure over the same operand slots) are
// hoisted into shared prelude segments computed once — and one
// FusedMachine runs the prelude and then every condition segment, in a
// single pass on the caller's goroutine.
//
// Error isolation is per segment: the segments of a fused program share
// one register file but are otherwise independent, so an evaluation
// error (a width-overflow prim, a failed operand read) poisons only the
// segment it occurs in plus the conditions that read the poisoned
// shared register — those conditions report !ok and the scheduler falls
// back to the general evaluator (expr.EvalBits), keeping fused
// scheduling bit-identical to evaluating each condition alone.

// Segment is one independently executable slice of a fused program:
// Code[Start:End) computes one value into the Result register. Ops
// lists the operand slots the segment reads directly (ISig), Deps the
// shared-segment indexes it reads (IMov from a register below
// NumShared); both are the executor's poisoning inputs — a segment
// whose operand failed to fetch or whose shared dependency is poisoned
// must not run.
type Segment struct {
	Start, End int
	Result     uint16
	Ops        []uint16
	Deps       []uint16
}

// MultiProg is a fused multi-condition program. Registers
// [0, NumShared) hold the results of the shared (CSE) segments, in
// segment order — Shared[i] writes register i; the remaining registers
// are per-segment scratch. Shared segments must be dependency-ordered:
// a segment may only read shared registers of earlier segments.
type MultiProg struct {
	Code        []Instr
	NumRegs     int
	NumShared   int
	NumOperands int
	// Shared are the CSE prelude segments, run once per edge before any
	// condition executes.
	Shared []Segment
	// Conds are the per-condition segments; Conds[i] computes condition
	// i's value.
	Conds []Segment
}

// FusedMachine executes fused programs. It owns a reusable register
// file and the shared segments' soundness flags, so steady-state
// execution allocates nothing; it is not safe for concurrent use.
type FusedMachine struct {
	regs     []Value
	sharedOK []bool
	args     [2]Value
}

func (m *FusedMachine) ensure(p *MultiProg) []Value {
	if cap(m.regs) < p.NumRegs {
		m.regs = make([]Value, p.NumRegs)
	}
	if cap(m.sharedOK) < p.NumShared {
		m.sharedOK = make([]bool, p.NumShared)
	}
	m.sharedOK = m.sharedOK[:p.NumShared]
	return m.regs[:p.NumRegs]
}

// segOK reports whether a segment's inputs are all sound: every operand
// it reads fetched successfully and every shared register it reads was
// computed by an unpoisoned segment.
func segOK(seg *Segment, opsOK, sharedOK []bool) bool {
	for _, o := range seg.Ops {
		if !opsOK[o] {
			return false
		}
	}
	for _, d := range seg.Deps {
		if !sharedOK[d] {
			return false
		}
	}
	return true
}

// Exec runs the whole program once: the shared prelude segments in
// order, each leaving its value in its own register, then every
// condition segment, writing results[i] and resultOK[i] for each
// condition i. A poisoned shared segment — failed operand, failed
// dependency, or an execution error — is recorded unsound, and the
// segments reading it are poisoned transitively; independent segments
// still run. skip is an optional packed bitmap over condition ids (bit
// i set = condition i is provably unchanged since its last miss):
// skipped conditions are not executed and their result entries are
// left untouched — the scheduler's own skip state decides what a
// masked condition means. A condition with a failed operand, a poisoned
// shared dependency, or an execution error reports resultOK false; the
// caller must then evaluate it with the general evaluator.
func (m *FusedMachine) Exec(p *MultiProg, operands []Value, opsOK []bool, skip []uint64, results []Value, resultOK []bool) {
	regs := m.ensure(p)
	for i := range p.Shared {
		seg := &p.Shared[i]
		m.sharedOK[i] = segOK(seg, opsOK, m.sharedOK) &&
			runCode(p.Code, seg.Start, seg.End, regs, operands, &m.args) == nil
	}
	for ci := range p.Conds {
		if skip != nil && skip[ci>>6]&(1<<(uint(ci)&63)) != 0 {
			continue
		}
		seg := &p.Conds[ci]
		if !segOK(seg, opsOK, m.sharedOK) {
			resultOK[ci] = false
			continue
		}
		if err := runCode(p.Code, seg.Start, seg.End, regs, operands, &m.args); err != nil {
			resultOK[ci] = false
			continue
		}
		results[ci] = regs[seg.Result]
		resultOK[ci] = true
	}
}
