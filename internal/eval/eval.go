// Package eval implements bit-accurate evaluation of IR primitive
// operations on up-to-64-bit values, and the word instruction set both
// the RTL simulator's netlist program and the debugger's fused
// condition program run on. It is shared by the constant propagation
// pass, the RTL simulator, and the debugger's expression evaluators, so
// all of them agree exactly on arithmetic semantics.
package eval

import (
	"fmt"

	"repro/internal/ir"
)

// Value is a fixed-width two's-complement bit vector of 1 to 64 bits.
// Bits above Width are always zero. Prim also returns result types
// wider than 64 bits: + and - of a 64-bit operand, * of operands whose
// widths sum past 64, signed / and Neg of a 64-bit operand. Such a
// Value keeps only the low 64 bits of the result, so it is exact as a
// type but not as a number: the condition fuser rejects a node of such
// a type, and the general evaluator (expr.EvalBits) computes its value
// at full width instead.
type Value struct {
	Bits   uint64
	Width  int
	Signed bool
}

// Mask returns the bit mask for a width.
func Mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// Make builds a Value, truncating bits to the width.
func Make(bits uint64, width int, signed bool) Value {
	return Value{Bits: bits & Mask(width), Width: width, Signed: signed}
}

// FromConst converts an IR literal.
func FromConst(c ir.Const) Value { return Make(c.Value, c.Width, c.Signed) }

// Int returns the numeric value: sign-extended for signed values.
func (v Value) Int() int64 {
	if !v.Signed || v.Width == 0 {
		return int64(v.Bits)
	}
	signBit := uint64(1) << uint(v.Width-1)
	if v.Bits&signBit != 0 {
		return int64(v.Bits | ^Mask(v.Width))
	}
	return int64(v.Bits)
}

// Uint returns the raw (zero-extended) bits.
func (v Value) Uint() uint64 { return v.Bits }

// IsTrue reports whether the value is non-zero.
func (v Value) IsTrue() bool { return v.Bits != 0 }

func (v Value) String() string {
	if v.Signed {
		return fmt.Sprintf("%d", v.Int())
	}
	return fmt.Sprintf("%d", v.Bits)
}

// boolVal converts a condition to a 1-bit value.
func boolVal(b bool) Value {
	if b {
		return Value{Bits: 1, Width: 1}
	}
	return Value{Width: 1}
}

// Prim evaluates one primitive operation. Result width rules mirror
// ir.TypeEnv exactly; deviations between the two are test failures.
func Prim(op ir.PrimOp, params []int, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("eval: %s expects %d args, got %d", op, n, len(args))
		}
		return nil
	}
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
		if err := need(2); err != nil {
			return Value{}, err
		}
		a, b := args[0], args[1]
		signed := a.Signed
		switch op {
		case ir.OpAdd:
			w := maxInt(a.Width, b.Width) + 1
			if signed {
				return Make(uint64(a.Int()+b.Int()), w, true), nil
			}
			return Make(a.Bits+b.Bits, w, false), nil
		case ir.OpSub:
			w := maxInt(a.Width, b.Width) + 1
			if signed {
				return Make(uint64(a.Int()-b.Int()), w, true), nil
			}
			return Make(a.Bits-b.Bits, w, false), nil
		case ir.OpMul:
			w := a.Width + b.Width
			if signed {
				return Make(uint64(a.Int()*b.Int()), w, true), nil
			}
			return Make(a.Bits*b.Bits, w, false), nil
		case ir.OpDiv:
			w := a.Width
			if signed {
				w++
			}
			if b.Bits == 0 {
				// Division by zero yields zero, a common simulator
				// convention that avoids killing long runs.
				return Make(0, w, signed), nil
			}
			if signed {
				return Make(uint64(a.Int()/b.Int()), w, true), nil
			}
			return Make(a.Bits/b.Bits, w, false), nil
		default: // OpRem
			w := minInt(a.Width, b.Width)
			if b.Bits == 0 {
				return Make(0, w, signed), nil
			}
			if signed {
				return Make(uint64(a.Int()%b.Int()), w, true), nil
			}
			return Make(a.Bits%b.Bits, w, false), nil
		}
	case ir.OpLt, ir.OpLeq, ir.OpGt, ir.OpGeq:
		if err := need(2); err != nil {
			return Value{}, err
		}
		a, b := args[0], args[1]
		var lt, eq bool
		if a.Signed {
			lt, eq = a.Int() < b.Int(), a.Int() == b.Int()
		} else {
			lt, eq = a.Bits < b.Bits, a.Bits == b.Bits
		}
		switch op {
		case ir.OpLt:
			return boolVal(lt), nil
		case ir.OpLeq:
			return boolVal(lt || eq), nil
		case ir.OpGt:
			return boolVal(!lt && !eq), nil
		default:
			return boolVal(!lt), nil
		}
	case ir.OpEq, ir.OpNeq:
		if err := need(2); err != nil {
			return Value{}, err
		}
		eq := args[0].Bits == args[1].Bits
		if op == ir.OpNeq {
			return boolVal(!eq), nil
		}
		return boolVal(eq), nil
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		if err := need(2); err != nil {
			return Value{}, err
		}
		w := maxInt(args[0].Width, args[1].Width)
		switch op {
		case ir.OpAnd:
			return Make(args[0].Bits&args[1].Bits, w, false), nil
		case ir.OpOr:
			return Make(args[0].Bits|args[1].Bits, w, false), nil
		default:
			return Make(args[0].Bits^args[1].Bits, w, false), nil
		}
	case ir.OpNot:
		if err := need(1); err != nil {
			return Value{}, err
		}
		return Make(^args[0].Bits, args[0].Width, false), nil
	case ir.OpNeg:
		if err := need(1); err != nil {
			return Value{}, err
		}
		return Make(uint64(-args[0].Int()), args[0].Width+1, true), nil
	case ir.OpShl:
		if err := need(1); err != nil {
			return Value{}, err
		}
		n := params[0]
		w := args[0].Width + n
		if w > 64 {
			return Value{}, fmt.Errorf("eval: shl result width %d exceeds 64", w)
		}
		return Make(args[0].Bits<<uint(n), w, args[0].Signed), nil
	case ir.OpShr:
		if err := need(1); err != nil {
			return Value{}, err
		}
		n := params[0]
		w := args[0].Width - n
		if w < 1 {
			w = 1
		}
		if args[0].Signed {
			return Make(uint64(args[0].Int()>>uint(minInt(n, 63))), w, true), nil
		}
		return Make(args[0].Bits>>uint(minInt(n, 63)), w, false), nil
	case ir.OpDshl:
		if err := need(2); err != nil {
			return Value{}, err
		}
		w := args[0].Width + (1 << uint(args[1].Width)) - 1
		if w > 64 {
			w = 64
		}
		sh := args[1].Bits
		if sh >= 64 {
			return Make(0, w, args[0].Signed), nil
		}
		return Make(args[0].Bits<<sh, w, args[0].Signed), nil
	case ir.OpDshr:
		if err := need(2); err != nil {
			return Value{}, err
		}
		sh := args[1].Bits
		if args[0].Signed {
			if sh >= 64 {
				sh = 63
			}
			return Make(uint64(args[0].Int()>>sh), args[0].Width, true), nil
		}
		if sh >= 64 {
			return Make(0, args[0].Width, false), nil
		}
		return Make(args[0].Bits>>sh, args[0].Width, false), nil
	case ir.OpCat:
		if err := need(2); err != nil {
			return Value{}, err
		}
		w := args[0].Width + args[1].Width
		if w > 64 {
			return Value{}, fmt.Errorf("eval: cat result width %d exceeds 64", w)
		}
		return Make(args[0].Bits<<uint(args[1].Width)|args[1].Bits, w, false), nil
	case ir.OpBits:
		if err := need(1); err != nil {
			return Value{}, err
		}
		hi, lo := params[0], params[1]
		if lo < 0 || hi < lo || hi >= args[0].Width {
			return Value{}, fmt.Errorf("eval: bits(%d, %d) out of range for width %d", hi, lo, args[0].Width)
		}
		return Make(args[0].Bits>>uint(lo), hi-lo+1, false), nil
	case ir.OpHead:
		if err := need(1); err != nil {
			return Value{}, err
		}
		n := params[0]
		return Make(args[0].Bits>>uint(args[0].Width-n), n, false), nil
	case ir.OpTail:
		if err := need(1); err != nil {
			return Value{}, err
		}
		n := params[0]
		w := args[0].Width - n
		if w < 1 {
			w = 1
		}
		return Make(args[0].Bits, w, false), nil
	case ir.OpAndR:
		if err := need(1); err != nil {
			return Value{}, err
		}
		return boolVal(args[0].Bits == Mask(args[0].Width)), nil
	case ir.OpOrR:
		if err := need(1); err != nil {
			return Value{}, err
		}
		return boolVal(args[0].Bits != 0), nil
	case ir.OpXorR:
		if err := need(1); err != nil {
			return Value{}, err
		}
		n := 0
		for b := args[0].Bits; b != 0; b &= b - 1 {
			n++
		}
		return boolVal(n%2 == 1), nil
	case ir.OpPad:
		if err := need(1); err != nil {
			return Value{}, err
		}
		w := maxInt(args[0].Width, params[0])
		if args[0].Signed {
			return Make(uint64(args[0].Int()), w, true), nil
		}
		return Make(args[0].Bits, w, false), nil
	case ir.OpAsUInt:
		if err := need(1); err != nil {
			return Value{}, err
		}
		return Make(args[0].Bits, args[0].Width, false), nil
	case ir.OpAsSInt:
		if err := need(1); err != nil {
			return Value{}, err
		}
		return Make(args[0].Bits, args[0].Width, true), nil
	}
	return Value{}, fmt.Errorf("eval: unknown primop %v", op)
}

// Mux selects t when cond is non-zero, f otherwise, widening to the
// larger operand.
func Mux(cond, t, f Value) Value {
	w := maxInt(t.Width, f.Width)
	if cond.IsTrue() {
		return Make(t.Bits, w, t.Signed)
	}
	return Make(f.Bits, w, t.Signed)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
