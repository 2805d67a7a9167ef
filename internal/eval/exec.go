package eval

import (
	"fmt"

	"repro/internal/ir"
)

// This file implements the instruction set of the compiled condition
// pipeline: a flat register-based code that the schedule fuser
// (internal/expr) lowers every armed condition into, and runCode, the
// interpreter FusedMachine executes segments with — zero heap
// allocations per run. The debugger's clock-edge callback re-evaluates
// every inserted breakpoint condition each cycle, so this is the
// hottest code in the system (§3.2, §4.3 of the paper).

// InstrKind discriminates compiled instructions.
type InstrKind uint8

const (
	// IConst writes the instruction's Const operand to Dst.
	IConst InstrKind = iota
	// ISig writes operand slot A (a pre-fetched signal value) to Dst.
	ISig
	// IPrim1 applies the unary primitive Op to register A.
	IPrim1
	// IPrim2 applies the binary primitive Op to registers A and B.
	IPrim2
	// ILogNot writes the 1-bit logical negation of register A.
	ILogNot
	// IBool normalizes register A to a 1-bit truth value.
	IBool
	// IBits extracts bits P0..P1 (hi..lo) of register A, zero-extending
	// past the operand width — the expression language's forgiving
	// bit-slice semantics.
	IBits
	// ICapW re-makes register A as unsigned with width min(width, P0).
	ICapW
	// IMov copies register A to Dst.
	IMov
	// IJump sets the program counter to P0.
	IJump
	// IJumpIfTrue jumps to P0 when register A is non-zero.
	IJumpIfTrue
	// IJumpIfFalse jumps to P0 when register A is zero.
	IJumpIfFalse
)

// Instr is one compiled instruction. Operands A and B name registers
// (for ISig, A is an operand slot instead); Dst is the destination
// register. P0/P1 carry immediate parameters: bit ranges for IBits, the
// width cap for ICapW, and jump targets for the jump forms.
type Instr struct {
	Kind  InstrKind
	Op    ir.PrimOp
	Dst   uint16
	A, B  uint16
	P0    int
	P1    int
	Const Value
}

// runCode interprets code[from:to) — one segment of a fused program —
// against a register file and operand slice. Jump targets are absolute
// instruction indexes; the fuser keeps them inside the segment.
func runCode(code []Instr, from, to int, regs, operands []Value, args *[2]Value) error {
	for pc := from; pc < to; {
		in := &code[pc]
		switch in.Kind {
		case IConst:
			regs[in.Dst] = in.Const
		case ISig:
			regs[in.Dst] = operands[in.A]
		case IPrim1:
			args[0] = regs[in.A]
			v, err := Prim(in.Op, nil, args[:1])
			if err != nil {
				return err
			}
			regs[in.Dst] = v
		case IPrim2:
			args[0], args[1] = regs[in.A], regs[in.B]
			v, err := Prim(in.Op, nil, args[:2])
			if err != nil {
				return err
			}
			regs[in.Dst] = v
		case ILogNot:
			regs[in.Dst] = boolVal(!regs[in.A].IsTrue())
		case IBool:
			regs[in.Dst] = boolVal(regs[in.A].IsTrue())
		case IBits:
			v := regs[in.A]
			regs[in.Dst] = Make(v.Bits>>uint(in.P1), in.P0-in.P1+1, false)
		case ICapW:
			v := regs[in.A]
			regs[in.Dst] = Make(v.Bits, minInt(v.Width, in.P0), false)
		case IMov:
			regs[in.Dst] = regs[in.A]
		case IJump:
			pc = in.P0
			continue
		case IJumpIfTrue:
			if regs[in.A].IsTrue() {
				pc = in.P0
				continue
			}
		case IJumpIfFalse:
			if !regs[in.A].IsTrue() {
				pc = in.P0
				continue
			}
		default:
			return fmt.Errorf("eval: unknown instruction kind %d", in.Kind)
		}
		pc++
	}
	return nil
}
