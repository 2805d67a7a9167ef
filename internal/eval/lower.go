package eval

import (
	"fmt"

	"repro/internal/ir"
)

// Operand is a lowered value: the plane slot holding it and its type,
// a zero Value of that type.
type Operand struct {
	Slot int32
	T    Value
}

// LowerPrim selects the word instruction computing primitive op over
// args: opcode (specialised by the first operand's signedness where
// Prim computes on Int()), operand slots, sign-extension shifts, static
// parameters and the result mask. The result type is Prim on zero
// values of the operand types, so an operation Prim rejects (a shl or
// cat wider than 64 bits) is an error here. The caller sets Dst.
// constant returns a plane slot pre-filled with the given bits: andr
// and orr compare against one.
func LowerPrim(op ir.PrimOp, params []int, args []Operand, constant func(uint64) int32) (Instr, Value, error) {
	var zeros [2]Value
	if len(args) == 0 || len(args) > len(zeros) {
		return Instr{}, Value{}, fmt.Errorf("eval: %s with %d operands", op, len(args))
	}
	for i, a := range args {
		zeros[i] = a.T
	}
	res, err := Prim(op, params, zeros[:len(args)])
	if err != nil {
		return Instr{}, Value{}, err
	}
	in := Instr{Mask: Mask(res.Width)}
	a := args[0]
	in.A, in.SA = a.Slot, extShift(a.T)
	if len(args) > 1 {
		in.B, in.SB = args[1].Slot, extShift(args[1].T)
	}
	pick := func(unsigned, signed Op) Op {
		if a.T.Signed {
			return signed
		}
		return unsigned
	}
	switch op {
	case ir.OpAdd:
		in.Op = pick(OpAdd, OpAddS)
	case ir.OpSub:
		in.Op = pick(OpSub, OpSubS)
	case ir.OpMul:
		in.Op = pick(OpMul, OpMulS)
	case ir.OpDiv:
		in.Op = pick(OpDiv, OpDivS)
	case ir.OpRem:
		in.Op = pick(OpRem, OpRemS)
	case ir.OpLt, ir.OpLeq:
		in.Op = pick(OpLt, OpLtS)
		if op == ir.OpLeq {
			in.Op = pick(OpLeq, OpLeqS)
		}
	case ir.OpGt, ir.OpGeq:
		// a > b is b < a, a >= b is b <= a; the first operand's
		// signedness still picks the comparison.
		in.Op = pick(OpLt, OpLtS)
		if op == ir.OpGeq {
			in.Op = pick(OpLeq, OpLeqS)
		}
		in.A, in.B, in.SA, in.SB = in.B, in.A, in.SB, in.SA
	case ir.OpEq:
		in.Op = OpEq
	case ir.OpNeq:
		in.Op = OpNeq
	case ir.OpAnd:
		in.Op = OpAnd
	case ir.OpOr:
		in.Op = OpOr
	case ir.OpXor:
		in.Op = OpXor
	case ir.OpNot:
		in.Op = OpNot
	case ir.OpNeg:
		in.Op = OpNeg
	case ir.OpShl:
		in.Op, in.Imm = OpShl, shiftImm(params[0])
	case ir.OpShr:
		in.Op, in.Imm = pick(OpShr, OpShrS), shiftImm(min(params[0], 63))
	case ir.OpDshl:
		in.Op = OpDshl
	case ir.OpDshr:
		in.Op = pick(OpDshr, OpDshrS)
	case ir.OpCat:
		in.Op, in.Imm = OpCat, shiftImm(args[1].T.Width)
	case ir.OpBits:
		in.Op, in.Imm = OpShr, shiftImm(params[1])
	case ir.OpHead:
		in.Op, in.Imm = OpShr, shiftImm(a.T.Width-params[0])
	case ir.OpTail, ir.OpAsUInt, ir.OpAsSInt:
		in.Op = OpMask
	case ir.OpAndR:
		in.Op, in.B = OpEq, constant(Mask(a.T.Width))
	case ir.OpOrR:
		in.Op, in.B = OpNeq, constant(0)
	case ir.OpXorR:
		in.Op = OpXorR
	case ir.OpPad:
		in.Op = pick(OpMask, OpSext)
	default:
		return Instr{}, Value{}, fmt.Errorf("eval: cannot lower primop %v", op)
	}
	return in, res, nil
}

// LowerMux is LowerPrim for a multiplexer: the instruction selecting t
// when cond is non-zero and f otherwise, typed by Mux.
func LowerMux(cond, t, f Operand) (Instr, Value) {
	res := Mux(cond.T, t.T, f.T)
	return Instr{Op: OpMux, A: cond.Slot, B: t.Slot, C: f.Slot, Mask: Mask(res.Width)}, res
}

// extShift is the shift that sign-extends a value of t's type the way
// Value.Int does: only signed values 1 to 63 bits wide extend.
func extShift(t Value) uint8 {
	if t.Signed && t.Width >= 1 && t.Width < 64 {
		return uint8(64 - t.Width)
	}
	return 0
}

// shiftImm encodes a static shift amount. A negative amount shifts
// everything out, as it does in Prim (where it converts to a huge
// unsigned count).
func shiftImm(n int) uint32 {
	if n < 0 || n > 64 {
		return 64
	}
	return uint32(n)
}
