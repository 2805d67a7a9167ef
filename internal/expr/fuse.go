package expr

import (
	"sort"

	"repro/internal/eval"
	"repro/internal/ir"
)

// This file implements the schedule fuser: it lowers the folded
// conditions of every armed breakpoint and watchpoint into one program
// of word instructions (eval.MultiProg over eval.Instr, the simulator's
// own instruction set), which the debugger runs once per clock edge. It
// is the only compiled form a condition has.
//
// Types come from handles. The program's value plane starts with the
// caller's dependency union, one slot per signal, each of the static
// type its backend reported when the signal was resolved. Every node
// is typed from there at fuse time the way elaboration types a
// netlist: by eval.Prim or eval.Mux on zero values of its operands'
// types (eval.LowerPrim, eval.LowerMux).
//
// Lowering is branch-free, and exact. Once its types check, no word
// instruction can fail and none has a side effect, so computing both
// sides of && and || and both arms of ?: yields what EvalBits'
// short-circuit order yields: && and || combine the truths (compare
// against zero) of their sides with OpAnd and OpOr, ?: is OpMux, and a
// condition with both an enable and a user condition is the AND of
// their truths. The one thing a skipped side could do is read a slot
// whose read failed; the caller poisons every condition whose closure
// (FusedSchedule.Slots) holds a failed slot and evaluates it with
// EvalBits instead.
//
// A node sits in a truth place when only its truth is observed: the
// root of a condition whose caller reads its truth alone
// (FusedCondition.Truth, or both an enable and a user condition), a
// side of && or ||, the operand of !, a ?: selector, or an arm of a ?:
// in a truth place. A ?: in a truth place whose arms differ in type is
// the OpMux of its arms' truths: EvalBits' result is the chosen arm,
// whose truth that is whatever its width.
//
// A condition whose types do not check is not fused (its IDs entry is
// -1) and runs on EvalBits: an operand that did not resolve or is wider
// than 64 bits, a literal with x/z digits or wider than 64 bits
// (8'b1x0z, 130'h1: no word holds it), a node whose result type is
// wider than 64 bits, a signed operation reading a 64-bit unsigned
// operand (the word ISA would read its bit 63 as a sign), or a ?: whose
// arms differ in type outside a truth place (EvalBits' result type
// would then depend on the selector).
//
// Instructions are hash-consed across all conditions on their opcode,
// operands and immediates, so a subexpression two conditions share is
// computed once, whatever guards it. The instructions two or more
// conditions reach form the prelude, run first at every edge; the rest
// form one private range per condition, laid out in condition order,
// which the caller skips while the condition is parked.

// FusedCondition is one armed condition handed to the fuser: the
// folded enable and user-condition programs (either may be nil; both
// nil means "always hits when evaluated") plus, aligned with each
// program's Deps order, the caller's dependency-union slots. A
// condition with a slot below zero is not fused.
type FusedCondition struct {
	Enable      *Program
	Cond        *Program
	EnableSlots []int
	CondSlots   []int
	// Truth says the caller reads only the result's truth (a
	// breakpoint); the fused result is then that 1-bit truth. A
	// condition with both an enable and a user condition is always read
	// so.
	Truth bool
}

// FuseStats reports the fused program's shape.
type FuseStats struct {
	// Conds is the number of fused conditions.
	Conds int
	// SharedSegs is the number of prelude instructions: instructions
	// two or more fused conditions reach, run once for all of them.
	SharedSegs int
	// SharedReads is the number of instruction runs the prelude saves:
	// over the prelude instructions, the conditions reaching each, less
	// one.
	SharedReads int
	// Operands is the number of distinct dependency-union slots the
	// program reads.
	Operands int
	// Instrs is the number of word instructions a full run executes
	// (the prelude plus every private range).
	Instrs int
}

// FusedSchedule is the fuser's output.
type FusedSchedule struct {
	// Prog is the program; its plane's first slots are the caller's
	// dependency union, which the caller fills before a run.
	Prog eval.MultiProg
	// IDs maps each input condition to its fused id (its index in
	// Prog.Conds), or -1 when it was not fused. Fused ids keep the
	// input order.
	IDs []int32
	// Slots lists, by fused id, the dependency-union slots the
	// condition reads, directly or through the prelude: what can
	// change its value and what can poison it.
	Slots [][]int32
	Stats FuseStats
}

// fnode is one emitted instruction: reach counts the fused conditions
// reaching it, owner is the first of them, last the most recent (the
// reach walk's visited mark).
type fnode struct {
	in          eval.Instr
	reach       int32
	owner, last int32
}

type fuser struct {
	types  []eval.Value // union slot -> type
	init   []uint64     // the plane so far
	nodeOf []int32      // plane slot -> node computing it, or -1
	consts map[uint64]int32
	cache  map[eval.Instr]int32 // instruction with Dst 0 -> node
	nodes  []fnode
}

var bit = eval.Make(0, 1, false)

// Fuse compiles the conditions into one program over a plane whose
// first len(types) slots are the caller's dependency union; types[s] is
// slot s's type, a zero Value (width 0 for a slot that did not
// resolve). Fused condition i's value is truthy exactly when its enable
// holds and its user condition holds (each taken as true when absent).
func Fuse(conds []FusedCondition, types []eval.Value) *FusedSchedule {
	f := &fuser{
		types:  types,
		init:   make([]uint64, len(types)),
		nodeOf: make([]int32, len(types)),
		consts: map[uint64]int32{},
		cache:  map[eval.Instr]int32{},
	}
	for i := range f.nodeOf {
		f.nodeOf[i] = -1
	}
	sched := &FusedSchedule{IDs: make([]int32, len(conds))}
	for k, c := range conds {
		res, ok := f.condition(c)
		if !ok {
			sched.IDs[k] = -1
			continue
		}
		ci := int32(len(sched.Prog.Conds))
		sched.IDs[k] = ci
		sched.Prog.Conds = append(sched.Prog.Conds, eval.Segment{Result: res.Slot, Type: res.T})
		var slots []int32
		f.reach(res.Slot, ci, &slots)
		sched.Slots = append(sched.Slots, slots)
	}
	f.layout(&sched.Prog, &sched.Stats)
	sched.Prog.Init = f.init
	sched.Stats.Conds = len(sched.Prog.Conds)
	sched.Stats.Instrs = len(sched.Prog.Code)
	seen := make([]bool, len(types))
	for _, slots := range sched.Slots {
		for _, s := range slots {
			if !seen[s] {
				seen[s] = true
				sched.Stats.Operands++
			}
		}
	}
	return sched
}

// layout places every reached instruction: those two or more
// conditions reach into the prelude, the rest into their one
// condition's private range, each in emission order (operands are
// emitted before their users, so emission order is a topological one).
func (f *fuser) layout(p *eval.MultiProg, st *FuseStats) {
	private := make([]int, len(p.Conds)+1)
	for i := range f.nodes {
		switch n := &f.nodes[i]; {
		case n.reach >= 2:
			p.Prelude++
			st.SharedSegs++
			st.SharedReads += int(n.reach) - 1
		case n.reach == 1:
			private[n.owner+1]++
		}
	}
	private[0] = p.Prelude
	for ci := range p.Conds {
		private[ci+1] += private[ci]
		p.Conds[ci].Start, p.Conds[ci].End = private[ci], private[ci+1]
	}
	p.Code = make([]eval.Instr, private[len(p.Conds)])
	pre := 0
	for i := range f.nodes {
		switch n := &f.nodes[i]; {
		case n.reach >= 2:
			p.Code[pre] = n.in
			pre++
		case n.reach == 1:
			p.Code[private[n.owner]] = n.in
			private[n.owner]++
		}
	}
}

// reach marks every instruction the value in slot s depends on as
// reached by condition ci, and collects the union slots it reads.
func (f *fuser) reach(s, ci int32, slots *[]int32) {
	if int(s) < len(f.types) {
		for _, x := range *slots {
			if x == s {
				return
			}
		}
		*slots = append(*slots, s)
		return
	}
	ni := f.nodeOf[s]
	if ni < 0 {
		return // a constant
	}
	n := &f.nodes[ni]
	if n.reach > 0 && n.last == ci {
		return
	}
	if n.reach == 0 {
		n.owner = ci
	}
	n.reach++
	n.last = ci
	operands := [3]int32{n.in.A, n.in.B, n.in.C}
	for _, x := range operands[:n.in.Op.Reads()] {
		f.reach(x, ci, slots)
	}
}

// condition lowers one condition; ok is false when its types do not
// check.
func (f *fuser) condition(c FusedCondition) (eval.Operand, bool) {
	truth := c.Truth || (c.Enable != nil && c.Cond != nil)
	var en, cond eval.Operand
	if c.Enable != nil {
		var ok bool
		if en, ok = f.lower(c.Enable.Folded, c.Enable.Deps, c.EnableSlots, truth); !ok {
			return en, false
		}
	}
	if c.Cond != nil {
		var ok bool
		if cond, ok = f.lower(c.Cond.Folded, c.Cond.Deps, c.CondSlots, truth); !ok {
			return cond, false
		}
	}
	var res eval.Operand
	switch {
	case c.Enable != nil && c.Cond != nil:
		return f.logic(eval.OpAnd, en, cond), true
	case c.Enable != nil:
		res = en
	case c.Cond != nil:
		res = cond
	default:
		return eval.Operand{Slot: f.constant(1), T: bit}, true
	}
	if truth {
		return f.truth(res), true
	}
	return res, true
}

// lower lowers n, whose names are deps (sorted) at the union slots
// slots; truth says n sits in a truth place. ok is false when the types
// do not check.
func (f *fuser) lower(n Node, deps []string, slots []int, truth bool) (eval.Operand, bool) {
	switch t := n.(type) {
	case numNode:
		return eval.Operand{Slot: f.constant(t.v.Bits), T: eval.Make(0, t.v.Width, t.v.Signed)}, true
	case nameNode:
		i := sort.SearchStrings(deps, t.name)
		if i == len(deps) || deps[i] != t.name || len(slots) != len(deps) {
			return eval.Operand{}, false
		}
		s := slots[i]
		if s < 0 || s >= len(f.types) {
			return eval.Operand{}, false
		}
		ty := f.types[s]
		if ty.Width < 1 || ty.Width > 64 {
			return eval.Operand{}, false
		}
		return eval.Operand{Slot: int32(s), T: eval.Make(0, ty.Width, ty.Signed)}, true
	case unaryNode:
		x, ok := f.lower(t.x, deps, slots, t.op == "!")
		if !ok {
			return x, false
		}
		switch t.op {
		case "~":
			return f.prim(ir.OpNot, x)
		case "-":
			return f.prim(ir.OpNeg, x)
		case "!":
			return f.emit(eval.Instr{Op: eval.OpEq, A: x.Slot, B: f.constant(0), Mask: 1}, bit), true
		}
	case binNode:
		logic := t.op == "&&" || t.op == "||"
		a, ok := f.lower(t.a, deps, slots, logic)
		if !ok {
			return a, false
		}
		b, ok := f.lower(t.b, deps, slots, logic)
		if !ok {
			return b, false
		}
		switch t.op {
		case "&&":
			return f.logic(eval.OpAnd, a, b), true
		case "||":
			return f.logic(eval.OpOr, a, b), true
		}
		op, known := binOps[t.op]
		if !known || signedReadsU64(t.op, a.T, b.T) {
			return eval.Operand{}, false
		}
		if op == ir.OpDshl {
			// The language caps a dynamic shift amount at 6 bits of
			// magnitude, as applyBin does.
			if b.T.Width > 6 {
				b = f.emit(eval.Instr{Op: eval.OpMask, A: b.Slot, Mask: eval.Mask(6)}, eval.Make(0, 6, false))
			}
			b.T.Signed = false
		}
		return f.prim(op, a, b)
	case ternaryNode:
		c, ok := f.lower(t.cond, deps, slots, true)
		if !ok {
			return c, false
		}
		x, ok := f.lower(t.t, deps, slots, truth)
		if !ok {
			return x, false
		}
		y, ok := f.lower(t.f, deps, slots, truth)
		switch {
		case !ok || (x.T != y.T && !truth):
			return y, false
		case x.T != y.T:
			x, y = f.truth(x), f.truth(y)
		}
		in, res := eval.LowerMux(c, x, y)
		return f.emit(in, res), true
	case bitsNode:
		x, ok := f.lower(t.x, deps, slots, false)
		w := t.hi - t.lo + 1
		if !ok || w > 64 {
			return x, false
		}
		// The slice zero-extends past the operand's width, as
		// bitsNode.apply does.
		in := eval.Instr{Op: eval.OpShr, A: x.Slot, Imm: uint32(min(t.lo, 64)), Mask: eval.Mask(w)}
		return f.emit(in, eval.Make(0, w, false)), true
	}
	return eval.Operand{}, false
}

// prim emits a primitive over args; ok is false when its result type is
// wider than 64 bits.
func (f *fuser) prim(op ir.PrimOp, args ...eval.Operand) (eval.Operand, bool) {
	in, res, err := eval.LowerPrim(op, nil, args, f.constant)
	if err != nil || res.Width > 64 {
		return eval.Operand{}, false
	}
	return f.emit(in, res), true
}

// logic combines the truths of a and b with OpAnd or OpOr.
func (f *fuser) logic(op eval.Op, a, b eval.Operand) eval.Operand {
	a, b = f.truth(a), f.truth(b)
	return f.emit(eval.Instr{Op: op, A: a.Slot, B: b.Slot, Mask: 1}, bit)
}

// truth is x != 0; a 1-bit value is its own truth.
func (f *fuser) truth(x eval.Operand) eval.Operand {
	if x.T.Width == 1 {
		return eval.Operand{Slot: x.Slot, T: bit}
	}
	return f.emit(eval.Instr{Op: eval.OpNeq, A: x.Slot, B: f.constant(0), Mask: 1}, bit)
}

// emit returns the slot of an instruction computing in (whose Dst is
// unset), of type t: an equal instruction already emitted, or a new one
// with a fresh slot.
func (f *fuser) emit(in eval.Instr, t eval.Value) eval.Operand {
	ni, ok := f.cache[in]
	if !ok {
		ni = int32(len(f.nodes))
		f.cache[in] = ni
		in.Dst = f.slot(0, ni)
		f.nodes = append(f.nodes, fnode{in: in})
	}
	return eval.Operand{Slot: f.nodes[ni].in.Dst, T: t}
}

// slot appends a plane slot initialised to bits, computed by node ni
// (-1 for a constant).
func (f *fuser) slot(bits uint64, ni int32) int32 {
	f.init = append(f.init, bits)
	f.nodeOf = append(f.nodeOf, ni)
	return int32(len(f.init) - 1)
}

// constant returns the slot pre-filled with bits, shared by every
// constant with those bits (an operand's type travels with the
// operand, not the slot).
func (f *fuser) constant(bits uint64) int32 {
	s, ok := f.consts[bits]
	if !ok {
		s = f.slot(bits, -1)
		f.consts[bits] = s
	}
	return s
}
