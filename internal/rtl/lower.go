package rtl

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/ir"
)

// operand is a lowered expression: the plane slot holding its value and
// a zero value of its type.
type operand struct {
	slot int32
	t    eval.Value
}

// lowerer lowers Low-form expressions into Program instructions,
// allocating temporaries and constant slots after the signals.
type lowerer struct {
	nl     *Netlist
	init   []uint64 // the plane so far; its length is the next free slot
	consts map[uint64]int32
	mems   map[string]int32 // memory name -> index into nl.Mems
}

func newLowerer(nl *Netlist) *lowerer {
	lw := &lowerer{
		nl:     nl,
		init:   make([]uint64, len(nl.Signals)),
		consts: map[uint64]int32{},
		mems:   map[string]int32{},
	}
	for i, m := range nl.Mems {
		lw.mems[m.Name] = int32(i)
	}
	return lw
}

// slot appends a plane slot initialised to bits.
func (lw *lowerer) slot(bits uint64) int32 {
	lw.init = append(lw.init, bits)
	return int32(len(lw.init) - 1)
}

// constant returns the slot pre-filled with bits, shared by every
// constant with those bits (an operand's type travels with the operand,
// not the slot).
func (lw *lowerer) constant(bits uint64) int32 {
	s, ok := lw.consts[bits]
	if !ok {
		s = lw.slot(bits)
		lw.consts[bits] = s
	}
	return s
}

func signalOperand(sig *Signal) operand {
	return operand{slot: int32(sig.Index), t: eval.Make(0, sig.Width, sig.Signed)}
}

// assign appends to code the instructions that leave e's value in slot
// dst of width w. The expression's root instruction writes dst
// directly when its result is w wide; otherwise, and for a bare
// reference or constant, a mask instruction copies the value into dst
// and clamps it to w (the clamp only bites where the widths differ).
func (lw *lowerer) assign(code *[]Instr, scope string, e ir.Expr, dst int32, w int) error {
	op, err := lw.lower(code, scope, e, dst, w)
	if err != nil {
		return err
	}
	if op.slot != dst {
		*code = append(*code, Instr{Op: OpMask, Dst: dst, A: op.slot, Mask: eval.Mask(w)})
	}
	return nil
}

// lower appends e's instructions to code and returns its operand. An
// instruction whose result is w wide and is the expression's root
// writes dst (when dst >= 0); every other result gets a temporary.
func (lw *lowerer) lower(code *[]Instr, scope string, e ir.Expr, dst int32, w int) (operand, error) {
	switch x := e.(type) {
	case ir.Ref:
		sig, ok := lw.nl.byName[scope+x.Name]
		if !ok {
			return operand{}, fmt.Errorf("unresolved signal %q", scope+x.Name)
		}
		return signalOperand(sig), nil
	case ir.SubField:
		// Instance port reference: inst.port.
		ref, ok := x.E.(ir.Ref)
		if !ok {
			return operand{}, fmt.Errorf("unexpected subfield %s in Low form", e)
		}
		full := scope + ref.Name + "." + x.Name
		sig, found := lw.nl.byName[full]
		if !found {
			return operand{}, fmt.Errorf("unresolved instance port %q", full)
		}
		return signalOperand(sig), nil
	case ir.Const:
		v := eval.FromConst(x)
		return operand{slot: lw.constant(v.Bits), t: eval.Make(0, v.Width, v.Signed)}, nil
	case ir.Prim:
		args := make([]operand, len(x.Args))
		zeros := make([]eval.Value, len(x.Args))
		for i, a := range x.Args {
			op, err := lw.lower(code, scope, a, -1, 0)
			if err != nil {
				return operand{}, err
			}
			args[i], zeros[i] = op, op.t
		}
		res, err := eval.Prim(x.Op, x.Params, zeros)
		if err != nil {
			return operand{}, err
		}
		in, err := lw.prim(x.Op, x.Params, args)
		if err != nil {
			return operand{}, err
		}
		return lw.emit(code, in, res, dst, w), nil
	case ir.Mux:
		var ops [3]operand
		for i, a := range [3]ir.Expr{x.Cond, x.T, x.F} {
			op, err := lw.lower(code, scope, a, -1, 0)
			if err != nil {
				return operand{}, err
			}
			ops[i] = op
		}
		res := eval.Mux(ops[0].t, ops[1].t, ops[2].t)
		in := Instr{Op: OpMux, A: ops[0].slot, B: ops[1].slot, C: ops[2].slot}
		return lw.emit(code, in, res, dst, w), nil
	case ir.MemRead:
		mi, ok := lw.mems[scope+x.Mem]
		if !ok {
			return operand{}, fmt.Errorf("read of unknown memory %q", scope+x.Mem)
		}
		addr, err := lw.lower(code, scope, x.Addr, -1, 0)
		if err != nil {
			return operand{}, err
		}
		res := eval.Make(0, lw.nl.Mems[mi].Width, false)
		in := Instr{Op: OpMemRead, A: addr.slot, Imm: uint32(mi)}
		return lw.emit(code, in, res, dst, w), nil
	}
	return operand{}, fmt.Errorf("cannot lower %T (%s) — not Low form", e, e)
}

// emit appends in with res's mask, writing dst when res is w wide and
// dst is set, else a fresh temporary.
func (lw *lowerer) emit(code *[]Instr, in Instr, res eval.Value, dst int32, w int) operand {
	if dst < 0 || res.Width != w {
		dst = lw.slot(0)
	}
	in.Dst, in.Mask = dst, eval.Mask(res.Width)
	*code = append(*code, in)
	return operand{slot: dst, t: res}
}

// prim selects a primitive's instruction: opcode (specialised by the
// first operand's signedness where eval.Prim computes on Int()),
// operand slots, sign-extension shifts and static parameters. Result
// width and signedness were already checked by eval.Prim.
func (lw *lowerer) prim(op ir.PrimOp, params []int, args []operand) (Instr, error) {
	var in Instr
	a := args[0]
	in.A, in.SA = a.slot, extShift(a.t)
	if len(args) > 1 {
		in.B, in.SB = args[1].slot, extShift(args[1].t)
	}
	pick := func(unsigned, signed Op) Op {
		if a.t.Signed {
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
		in.Op, in.Imm = OpCat, shiftImm(args[1].t.Width)
	case ir.OpBits:
		in.Op, in.Imm = OpShr, shiftImm(params[1])
	case ir.OpHead:
		in.Op, in.Imm = OpShr, shiftImm(a.t.Width-params[0])
	case ir.OpTail, ir.OpAsUInt, ir.OpAsSInt:
		in.Op = OpMask
	case ir.OpAndR:
		in.Op, in.B = OpEq, lw.constant(eval.Mask(a.t.Width))
	case ir.OpOrR:
		in.Op, in.B = OpNeq, lw.constant(0)
	case ir.OpXorR:
		in.Op = OpXorR
	case ir.OpPad:
		in.Op = pick(OpMask, OpSext)
	default:
		return Instr{}, fmt.Errorf("cannot lower primop %v", op)
	}
	return in, nil
}

// extShift is the shift that sign-extends a value of t's type the way
// eval.Value.Int does: only signed values 1 to 63 bits wide extend.
func extShift(t eval.Value) uint8 {
	if t.Signed && t.Width >= 1 && t.Width < 64 {
		return uint8(64 - t.Width)
	}
	return 0
}

// shiftImm encodes a static shift amount. A negative amount shifts
// everything out, as it does in eval.Prim (where it converts to a huge
// unsigned count).
func shiftImm(n int) uint32 {
	if n < 0 || n > 64 {
		return 64
	}
	return uint32(n)
}

// collectRefs returns the full signal names an expression references
// (used for topological sorting). Instance port references contribute
// the dotted port net, not the bare instance name.
func collectRefs(prefix string, e ir.Expr) []string {
	var out []string
	var visit func(ir.Expr)
	visit = func(sub ir.Expr) {
		switch x := sub.(type) {
		case ir.Ref:
			out = append(out, prefix+x.Name)
		case ir.SubField:
			if ref, ok := x.E.(ir.Ref); ok {
				out = append(out, prefix+ref.Name+"."+x.Name)
				return
			}
			visit(x.E)
		case ir.SubIndex:
			visit(x.E)
		case ir.SubAccess:
			visit(x.E)
			visit(x.Index)
		case ir.Prim:
			for _, a := range x.Args {
				visit(a)
			}
		case ir.Mux:
			visit(x.Cond)
			visit(x.T)
			visit(x.F)
		case ir.MemRead:
			visit(x.Addr)
		}
	}
	visit(e)
	return out
}
