package rtl

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/ir"
)

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

func signalOperand(sig *Signal) eval.Operand {
	return eval.Operand{Slot: int32(sig.Index), T: eval.Make(0, sig.Width, sig.Signed)}
}

// assign appends to code the instructions that leave e's value in slot
// dst of width w. The expression's root instruction writes dst
// directly when its result is w wide; otherwise, and for a bare
// reference or constant, a mask instruction copies the value into dst
// and clamps it to w (the clamp only bites where the widths differ).
func (lw *lowerer) assign(code *[]eval.Instr, scope string, e ir.Expr, dst int32, w int) error {
	op, err := lw.lower(code, scope, e, dst, w)
	if err != nil {
		return err
	}
	if op.Slot != dst {
		*code = append(*code, eval.Instr{Op: eval.OpMask, Dst: dst, A: op.Slot, Mask: eval.Mask(w)})
	}
	return nil
}

// lower appends e's instructions to code and returns its operand. An
// instruction whose result is w wide and is the expression's root
// writes dst (when dst >= 0); every other result gets a temporary.
func (lw *lowerer) lower(code *[]eval.Instr, scope string, e ir.Expr, dst int32, w int) (eval.Operand, error) {
	switch x := e.(type) {
	case ir.Ref:
		sig, ok := lw.nl.byName[scope+x.Name]
		if !ok {
			return eval.Operand{}, fmt.Errorf("unresolved signal %q", scope+x.Name)
		}
		return signalOperand(sig), nil
	case ir.SubField:
		// Instance port reference: inst.port.
		ref, ok := x.E.(ir.Ref)
		if !ok {
			return eval.Operand{}, fmt.Errorf("unexpected subfield %s in Low form", e)
		}
		full := scope + ref.Name + "." + x.Name
		sig, found := lw.nl.byName[full]
		if !found {
			return eval.Operand{}, fmt.Errorf("unresolved instance port %q", full)
		}
		return signalOperand(sig), nil
	case ir.Const:
		v := eval.FromConst(x)
		return eval.Operand{Slot: lw.constant(v.Bits), T: eval.Make(0, v.Width, v.Signed)}, nil
	case ir.Prim:
		args := make([]eval.Operand, len(x.Args))
		for i, a := range x.Args {
			op, err := lw.lower(code, scope, a, -1, 0)
			if err != nil {
				return eval.Operand{}, err
			}
			args[i] = op
		}
		in, res, err := eval.LowerPrim(x.Op, x.Params, args, lw.constant)
		if err != nil {
			return eval.Operand{}, err
		}
		return lw.emit(code, in, res, dst, w), nil
	case ir.Mux:
		var ops [3]eval.Operand
		for i, a := range [3]ir.Expr{x.Cond, x.T, x.F} {
			op, err := lw.lower(code, scope, a, -1, 0)
			if err != nil {
				return eval.Operand{}, err
			}
			ops[i] = op
		}
		in, res := eval.LowerMux(ops[0], ops[1], ops[2])
		return lw.emit(code, in, res, dst, w), nil
	case ir.MemRead:
		mi, ok := lw.mems[scope+x.Mem]
		if !ok {
			return eval.Operand{}, fmt.Errorf("read of unknown memory %q", scope+x.Mem)
		}
		addr, err := lw.lower(code, scope, x.Addr, -1, 0)
		if err != nil {
			return eval.Operand{}, err
		}
		res := eval.Make(0, lw.nl.Mems[mi].Width, false)
		in := eval.Instr{Op: eval.OpMemRead, A: addr.Slot, Imm: uint32(mi), Mask: eval.Mask(res.Width)}
		return lw.emit(code, in, res, dst, w), nil
	}
	return eval.Operand{}, fmt.Errorf("cannot lower %T (%s) — not Low form", e, e)
}

// emit appends in, whose result has type res, writing dst when res is
// w wide and dst is set, else a fresh temporary.
func (lw *lowerer) emit(code *[]eval.Instr, in eval.Instr, res eval.Value, dst int32, w int) eval.Operand {
	if dst < 0 || res.Width != w {
		dst = lw.slot(0)
	}
	in.Dst = dst
	*code = append(*code, in)
	return eval.Operand{Slot: dst, T: res}
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
