package expr

import (
	"fmt"

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
// of them are fully known and at most 64 bits wide, and so is the
// node's result type, the node applies the exact same two-state
// operator body (applyBin / unaryNode.apply / bitsNode.apply, all over
// eval.Prim) whose type the fuser checks and whose instruction it
// emits. A two-state node whose result type is wider than 64 bits (+,
// - and * of wide enough operands, signed /, unary - of a 64-bit
// value, a slice wider than 64 bits), and a signed operation reading a
// 64-bit unsigned operand (signedReadsU64), compute their exact value
// in the general domain instead; the fuser never fuses such a node. Subtrees
// that see an X bit or a wide value run the val.Bits operators, which
// follow Verilog X-propagation: bitwise ops are per-bit (known 0
// dominates &, known 1 dominates |), arithmetic and ordered
// comparisons go whole-result x on any unknown input bit, == is
// three-valued, and === / !== compare all four states bit-for-bit and
// always produce a known 0/1. On known values the general domain
// computes what eval.Prim computes, at any width: its arithmetic,
// ordering and >> follow val.Bits.Signed the way Prim follows
// Value.Signed, and signals keep their sign across the lowering, so a
// signed chain whose intermediate crosses 64 bits keeps its sign.

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
		if v.Width <= 64 {
			return two(v), nil
		}
		// -x of a 64-bit x: its sign needs bit 64.
		x = gen(x.bits())
	}
	switch n.op {
	case "~":
		return gen(x.b.Not()), nil
	case "!":
		return triVal(triNot(x.b.Truth())), nil
	case "-":
		return gen(x.b.Neg()), nil
	}
	return bval{}, fmt.Errorf("expr: unknown unary %q", n.op)
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
	if !a.gen && !b.gen && !signedReadsU64(n.op, a.v, b.v) {
		v, err := applyBin(n.op, a.v, b.v)
		if err != nil {
			return bval{}, err
		}
		if v.Width <= 64 {
			return two(v), nil
		}
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
		return gen(a.Mul(b)), nil
	case "/":
		return gen(a.Div(b)), nil
	case "%":
		return gen(a.Rem(b)), nil
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
		// eval.Prim's OpDshl width over the language's 6-bit amount: the
		// operand's, widened by 2^min(amount width, 6) - 1, capped at 64
		// bits and never narrower than the operand. The amount is its low
		// 6 bits, as in applyBin and the fuser, so an x bit above them
		// leaves the shift known.
		w := max(min(a.Width+1<<min(b.Width, 6)-1, 64), a.Width)
		sh, known := shiftAmount(b.Slice(min(b.Width, 6)-1, 0))
		if !known {
			return gen(val.Unknown(w)), nil
		}
		r := a.Resize(w).Shl(sh)
		r.Signed = a.Signed
		return gen(r), nil
	case ">>":
		sh, known := shiftAmount(b)
		switch {
		case !known:
			return gen(val.Unknown(a.Width)), nil
		case a.Signed:
			return gen(a.Sar(sh)), nil
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
	// agree on; everything else is x. A known selector yields its arm at
	// that arm's own width, so the bits above the narrower arm are x
	// too: a ~ or - over the merge must not read them as known zeros.
	t, err := n.t.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	f, err := n.f.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	tb, fb := t.bits(), f.bits()
	m := val.Mux(tb, fb)
	if w := min(tb.Width, fb.Width); w < m.Width {
		m = m.Xor(val.Unknown(m.Width).Shl(w))
	}
	return gen(m), nil
}

func (n bitsNode) evalBits(r BitsResolver) (bval, error) {
	x, err := n.x.evalBits(r)
	if err != nil {
		return bval{}, err
	}
	if !x.gen && n.hi-n.lo+1 <= 64 {
		v, err := n.apply(x.v)
		if err != nil {
			return bval{}, err
		}
		return two(v), nil
	}
	return gen(x.bits().Slice(n.hi, n.lo)), nil
}
