package expr

import (
	"fmt"
	"math/bits"

	"repro/internal/eval"
	"repro/internal/val"
)

// This file is the general four-state evaluator: the tree-walk the
// debugger uses for every evaluation the fused program does not cover —
// stepping, reverse stepping, the exhaustive reference, conditions that
// touch an unknown (x/z) or wider-than-64-bit signal or use a literal
// only val.Bits can hold, and fused results that come back poisoned.
//
// Bit-identity with the fused program is by construction, not by
// testing alone: every node evaluates its children first, and when all
// of them are fully known and at most 64 bits wide the node applies
// the exact same two-state operator body (applyBin / unaryNode.apply /
// bitsNode.apply, all over eval.Prim) the fuser lowers into
// instructions. Only subtrees that actually see an X bit or a wide
// value run the val.Bits operators, which follow Verilog
// X-propagation: bitwise ops are per-bit (known 0 dominates &, known 1
// dominates |), arithmetic and ordered comparisons go whole-result x
// on any unknown input bit, == is three-valued, and === / !== compare
// all four states bit-for-bit and always produce a known 0/1. Signals
// keep their sign across the lowering (val.Bits.Signed), so signed
// comparisons, shifts and arithmetic match too.

// BitsResolver maps a (possibly dotted) name to its current four-state
// value.
type BitsResolver interface {
	ResolveBits(name string) (val.Bits, error)
}

// BitsResolverFunc adapts a function to the BitsResolver interface.
type BitsResolverFunc func(name string) (val.Bits, error)

// ResolveBits implements BitsResolver.
func (f BitsResolverFunc) ResolveBits(name string) (val.Bits, error) { return f(name) }

// EvalBits evaluates the expression with four-state semantics.
func EvalBits(n Node, r BitsResolver) (val.Bits, error) {
	x, err := n.evalBits(r)
	if err != nil {
		return val.Bits{}, err
	}
	return x.bits(), nil
}

// bval is an evaluation result in one of two domains: the two-state
// fast domain (v, when gen is false) or the general four-state domain
// (b). Nodes stay in the fast domain as long as every operand is fully
// known and ≤64 bits, and promote permanently once anything isn't.
type bval struct {
	v   eval.Value
	b   val.Bits
	gen bool
}

// bits lifts the result into the four-state plane.
func (x bval) bits() val.Bits {
	if x.gen {
		return x.b
	}
	return x.v.ToBits()
}

// truth is the result's Verilog truthiness; fast-domain values are
// always known.
func (x bval) truth() val.Tri {
	if !x.gen {
		if x.v.IsTrue() {
			return val.True
		}
		return val.False
	}
	return x.b.Truth()
}

func two(v eval.Value) bval { return bval{v: v} }
func gen(b val.Bits) bval   { return bval{b: b, gen: true} }
func triVal(t val.Tri) bval {
	if t == val.Undef {
		return gen(val.TriBits(t))
	}
	return two(eval.Make(uint64(t&1), 1, false))
}

func triNot(t val.Tri) val.Tri {
	switch t {
	case val.True:
		return val.False
	case val.False:
		return val.True
	}
	return val.Undef
}

func (n numNode) evalBits(BitsResolver) (bval, error) { return two(n.v), nil }

func (n xnumNode) evalBits(BitsResolver) (bval, error) { return gen(n.b), nil }

func (n nameNode) evalBits(r BitsResolver) (bval, error) {
	b, err := r.ResolveBits(n.name)
	if err != nil {
		return bval{}, err
	}
	if v, ok := eval.FromBits(b); ok {
		return two(v), nil
	}
	return gen(b), nil
}

func (n unaryNode) evalBits(r BitsResolver) (bval, error) {
	x, err := n.x.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	if !x.gen {
		v, err := n.apply(x.v)
		if err != nil {
			return bval{}, err
		}
		return two(v), nil
	}
	switch n.op {
	case "~":
		return gen(x.b.Not()), nil
	case "!":
		return triVal(triNot(x.b.Truth())), nil
	case "-":
		return gen(negBits(x.b)), nil
	}
	return bval{}, fmt.Errorf("expr: unknown unary %q", n.op)
}

// negBits is arithmetic negation in the general domain: whole-result x
// on any unknown bit, otherwise two's complement at width+1 (capped to
// the operand width once at or past 64, matching val's width rules).
func negBits(b val.Bits) val.Bits {
	w := b.Width
	if w < 64 {
		w++
	}
	if b.HasX() {
		return val.Unknown(w)
	}
	return val.FromUint64(0, w).Sub(b).Resize(w)
}

func (n binNode) evalBits(r BitsResolver) (bval, error) {
	// Short-circuit forms use three-valued logic: the right side is
	// skipped only when the left side decides the result outright, so
	// an unresolved (x) left side still evaluates the right in case a
	// dominant known value (0 for &&, 1 for ||) settles it.
	switch n.op {
	case "&&":
		a, err := n.a.evalBits(r)
		if err != nil {
			return bval{}, err
		}
		at := a.truth()
		if at == val.False {
			return two(eval.Make(0, 1, false)), nil
		}
		b, err := n.b.evalBits(r)
		if err != nil {
			return bval{}, err
		}
		switch bt := b.truth(); {
		case bt == val.False:
			return two(eval.Make(0, 1, false)), nil
		case at == val.True && bt == val.True:
			return two(eval.Make(1, 1, false)), nil
		}
		return triVal(val.Undef), nil
	case "||":
		a, err := n.a.evalBits(r)
		if err != nil {
			return bval{}, err
		}
		at := a.truth()
		if at == val.True {
			return two(eval.Make(1, 1, false)), nil
		}
		b, err := n.b.evalBits(r)
		if err != nil {
			return bval{}, err
		}
		switch bt := b.truth(); {
		case bt == val.True:
			return two(eval.Make(1, 1, false)), nil
		case at == val.False && bt == val.False:
			return two(eval.Make(0, 1, false)), nil
		}
		return triVal(val.Undef), nil
	}
	a, err := n.a.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	b, err := n.b.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	if !a.gen && !b.gen {
		v, err := applyBin(n.op, a.v, b.v)
		if err != nil {
			return bval{}, err
		}
		return two(v), nil
	}
	return applyBinBits(n.op, a.bits(), b.bits())
}

// applyBinBits applies a non-short-circuit binary operator in the
// general four-state domain.
func applyBinBits(op string, a, b val.Bits) (bval, error) {
	switch op {
	case "+":
		return gen(a.Add(b)), nil
	case "-":
		return gen(a.Sub(b)), nil
	case "*":
		return gen(mulBits(a, b)), nil
	case "/":
		return gen(divBits(a, b)), nil
	case "%":
		return gen(remBits(a, b)), nil
	case "<", "<=", ">", ">=":
		c, known := a.Cmp(b)
		if !known {
			return triVal(val.Undef), nil
		}
		var t bool
		switch op {
		case "<":
			t = c < 0
		case "<=":
			t = c <= 0
		case ">":
			t = c > 0
		case ">=":
			t = c >= 0
		}
		return triVal(boolTri(t)), nil
	case "==":
		return triVal(a.Eq(b)), nil
	case "!=":
		return triVal(triNot(a.Eq(b))), nil
	case "===":
		return triVal(boolTri(a.CaseEq(b))), nil
	case "!==":
		return triVal(boolTri(!a.CaseEq(b))), nil
	case "&":
		return gen(a.And(b)), nil
	case "|":
		return gen(a.Or(b)), nil
	case "^":
		return gen(a.Xor(b)), nil
	case "<<":
		sh, known := shiftAmount(b)
		if !known {
			return gen(val.Unknown(a.Width)), nil
		}
		return gen(a.Shl(sh)), nil
	case ">>":
		sh, known := shiftAmount(b)
		if !known {
			return gen(val.Unknown(a.Width)), nil
		}
		return gen(a.Shr(sh)), nil
	}
	return bval{}, fmt.Errorf("expr: unknown operator %q", op)
}

func boolTri(t bool) val.Tri {
	if t {
		return val.True
	}
	return val.False
}

// shiftAmount extracts a known shift distance; an x amount makes the
// whole shift unknown, and a wide known magnitude simply shifts
// everything out.
func shiftAmount(b val.Bits) (int, bool) {
	if b.HasX() {
		return 0, false
	}
	v, ok := b.AsUint64()
	if !ok || v > maxLiteralWidth {
		return maxLiteralWidth + 1, true
	}
	return int(v), true
}

// mulBits multiplies in the general domain: whole-result x on any
// unknown bit, exact when both magnitudes fit 64 bits (the product is
// computed at 128 bits), all-x otherwise — true >64-bit magnitudes
// are beyond what the debugger's condition language evaluates.
func mulBits(a, b val.Bits) val.Bits {
	w := a.Width + b.Width
	if w > maxLiteralWidth {
		w = maxLiteralWidth
	}
	av, aok := a.AsUint64()
	bv, bok := b.AsUint64()
	if !aok || !bok {
		return val.Unknown(w)
	}
	hi, lo := bits.Mul64(av, bv)
	return val.FromWords([]uint64{lo, hi}, w)
}

// divBits divides in the general domain: division by zero is x per
// Verilog, as is any unknown or true-wide operand.
func divBits(a, b val.Bits) val.Bits {
	av, aok := a.AsUint64()
	bv, bok := b.AsUint64()
	if !aok || !bok || bv == 0 {
		return val.Unknown(a.Width)
	}
	return val.FromUint64(av/bv, a.Width)
}

// remBits is the remainder in the general domain, at eval's
// min(widths) result width.
func remBits(a, b val.Bits) val.Bits {
	w := minInt(a.Width, b.Width)
	av, aok := a.AsUint64()
	bv, bok := b.AsUint64()
	if !aok || !bok || bv == 0 {
		return val.Unknown(w)
	}
	return val.FromUint64(av%bv, w)
}

func (n ternaryNode) evalBits(r BitsResolver) (bval, error) {
	c, err := n.cond.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	switch c.truth() {
	case val.True:
		return n.t.evalBits(r)
	case val.False:
		return n.f.evalBits(r)
	}
	// Unknown selector: evaluate both arms and keep only the bits they
	// agree on; everything else is x.
	t, err := n.t.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	f, err := n.f.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	return gen(val.Mux(t.bits(), f.bits())), nil
}

func (n bitsNode) evalBits(r BitsResolver) (bval, error) {
	x, err := n.x.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	if !x.gen {
		v, err := n.apply(x.v)
		if err != nil {
			return bval{}, err
		}
		return two(v), nil
	}
	return gen(x.b.Slice(n.hi, n.lo)), nil
}
