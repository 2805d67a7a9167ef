package expr

import (
	"fmt"

	"repro/internal/val"
)

// This file is the compile-once half of condition evaluation. The
// debugger folds every breakpoint and watchpoint condition once, at
// insertion time, and collects its signal dependencies; the schedule
// fuser (fuse.go) lowers the folded trees of the whole armed set into
// the one program executed per clock edge, and EvalBits walks the
// original trees everywhere else.

// Program is a folded condition: the input of the schedule fuser.
type Program struct {
	// Deps are the identifiers the folded expression references,
	// deduplicated and sorted (Deps == Names(Folded)). Callers resolve
	// each to an operand slot of the per-edge prefetch.
	Deps []string
	// Folded is the constant-folded AST the fuser lowers. It is
	// immutable and safe to share across users.
	Folded Node
}

// newProgram folds n and collects its dependencies.
func newProgram(n Node) *Program {
	n = fold(n)
	return &Program{Deps: Names(n), Folded: n}
}

// fold rewrites constant subexpressions into literals. A subtree with
// no signal references evaluates identically on every cycle, so it is
// evaluated once here; subtrees whose constant evaluation errors are
// left intact so the error surfaces at run time exactly as EvalBits
// would report it.
func fold(n Node) Node {
	switch t := n.(type) {
	case unaryNode:
		x := fold(t.x)
		return foldConst(unaryNode{op: t.op, x: x})
	case binNode:
		a, b := fold(t.a), fold(t.b)
		return foldConst(binNode{op: t.op, a: a, b: b})
	case ternaryNode:
		cond := fold(t.cond)
		if c, ok := cond.(numNode); ok {
			// Constant selector: the other arm is dead, matching
			// EvalBits, which never evaluates it.
			if c.v.IsTrue() {
				return fold(t.t)
			}
			return fold(t.f)
		}
		return ternaryNode{cond: cond, t: fold(t.t), f: fold(t.f)}
	case bitsNode:
		x := fold(t.x)
		return foldConst(bitsNode{x: x, hi: t.hi, lo: t.lo})
	default:
		return n
	}
}

// foldConst evaluates a node whose children are all two-state literals.
// Only two-state results fold, so a folded tree never gains a literal
// the fused program cannot hold.
func foldConst(n Node) Node {
	if !childrenConst(n) {
		return n
	}
	x, err := n.evalBits(errResolver{})
	if err != nil || x.gen {
		return n
	}
	return numNode{v: x.v}
}

func childrenConst(n Node) bool {
	switch t := n.(type) {
	case unaryNode:
		return isConst(t.x)
	case binNode:
		// && and || short-circuit: a constant left side decides the
		// result alone when it terminates evaluation early.
		if a, ok := t.a.(numNode); ok {
			if (t.op == "&&" && !a.v.IsTrue()) || (t.op == "||" && a.v.IsTrue()) {
				return true
			}
		}
		return isConst(t.a) && isConst(t.b)
	case bitsNode:
		return isConst(t.x)
	}
	return false
}

func isConst(n Node) bool {
	_, ok := n.(numNode)
	return ok
}

// errResolver rejects every lookup; constant folding must never reach a
// signal reference.
type errResolver struct{}

func (errResolver) ResolveBits(name string) (val.Bits, error) {
	return val.Bits{}, fmt.Errorf("expr: constant fold reached signal %q", name)
}
