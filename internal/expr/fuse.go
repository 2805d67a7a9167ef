package expr

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/eval"
	"repro/internal/ir"
)

// This file implements the schedule fuser: it lowers the folded
// conditions of EVERY armed breakpoint and watchpoint into one fused
// eval.MultiProg the debugger executes once per clock edge — the only
// compiled form a condition has. Two things make the fused form cheaper
// than evaluating the conditions one by one:
//
//   - Cross-condition CSE. Subexpressions are canonicalized with their
//     signal names replaced by the caller's operand slot ids (the
//     prefetch-union slots), so two conditions computing the same
//     structure over the same signals — N breakpoints on one statement
//     share the enable prefix of their nested scopes, a user condition
//     repeats part of an enable — value-number to the same key. Keys
//     reached unconditionally by at least two evaluations are hoisted
//     into shared prelude segments computed once per edge.
//
//   - One operand table. Operands are keyed by prefetch slot, so the
//     scheduler gathers each union signal once for the whole schedule
//     rather than once per condition referencing it.
//
// Short-circuit semantics stay bit-exact by construction: only
// subtrees the original evaluation order reaches unconditionally (not
// under an && / || right side or a ternary arm — "unguarded") register
// CSE candidates, guarded occurrences merely read an already-hoisted
// register, and any evaluation error poisons exactly the segments that
// observed it (eval.Segment.Ops/Deps), whose conditions the scheduler
// then re-evaluates with EvalBits. Correctness never depends on the CSE
// heuristic; the heuristic only decides how much work is shared.

// FusedCondition is one armed condition handed to the fuser: the
// folded enable and user-condition programs (either may be nil; both
// nil means "always hits when evaluated") plus, aligned with each
// program's Deps order, the caller's operand slot ids. Every slot must
// be >= 0 — conditions with unresolved dependencies are not fusable and
// are evaluated with EvalBits instead.
type FusedCondition struct {
	Enable      *Program
	Cond        *Program
	EnableSlots []int
	CondSlots   []int
}

// FuseStats reports what the fuser shared.
type FuseStats struct {
	// Conds is the number of fused conditions.
	Conds int
	// SharedSegs is the number of CSE segments hoisted into the prelude.
	SharedSegs int
	// SharedReads is the number of subexpression evaluations replaced by
	// a shared-register read (the CSE hit count).
	SharedReads int
	// Operands is the size of the fused operand table (deduplicated
	// across all conditions by prefetch slot).
	Operands int
}

// FusedSchedule is the fuser's output: the fused program, the operand
// table as caller slot ids (operand i reads the caller's Slots[i]), and
// per-condition operand closures — every operand a condition's fused
// evaluation can observe, directly or through shared segments — which
// the scheduler uses for activity masking and poison checks.
type FusedSchedule struct {
	Prog       eval.MultiProg
	Slots      []int
	OpClosures [][]uint16
	Stats      FuseStats
}

// Fuse compiles the conditions into one fused program. Condition i of
// the result is conds[i]; its fused value is truthy exactly when the
// enable condition holds and the user condition holds (each treated as
// true when absent).
func Fuse(conds []FusedCondition) (*FusedSchedule, error) {
	f := &fuser{
		opIdx:   map[int]uint16{},
		count:   map[string]int{},
		reps:    map[string]fuseRep{},
		emitted: map[string]uint16{},
	}
	// Resolve each condition's name → operand-index maps up front; this
	// also populates the shared operand table.
	type condIR struct {
		enable, cond   Node
		enOps, condOps map[string]uint16
	}
	irs := make([]condIR, len(conds))
	for i, c := range conds {
		var ir condIR
		var err error
		if c.Enable != nil {
			ir.enable = c.Enable.Folded
			if ir.enOps, err = f.nameOps(c.Enable, c.EnableSlots); err != nil {
				return nil, fmt.Errorf("expr: fuse cond %d enable: %w", i, err)
			}
		}
		if c.Cond != nil {
			ir.cond = c.Cond.Folded
			if ir.condOps, err = f.nameOps(c.Cond, c.CondSlots); err != nil {
				return nil, fmt.Errorf("expr: fuse cond %d: %w", i, err)
			}
		}
		irs[i] = ir
	}
	// Pass 1: count unguarded occurrences of every non-leaf key. A user
	// condition only evaluates once the enable holds, so its subtrees are
	// guarded whenever an enable exists.
	for _, ir := range irs {
		if ir.enable != nil {
			f.scan(ir.enable, ir.enOps, false)
		}
		if ir.cond != nil {
			f.scan(ir.cond, ir.condOps, ir.enable != nil)
		}
	}
	// Pass 2: select keys worth hoisting (>=2 unconditional evaluations)
	// and order them inner-first so nested shared subexpressions are
	// emitted before the segments that read them.
	type sel struct {
		key   string
		depth int
	}
	var selected []sel
	for key, n := range f.count {
		if n >= 2 {
			selected = append(selected, sel{key, f.reps[key].depth})
		}
	}
	sort.Slice(selected, func(i, j int) bool {
		if selected[i].depth != selected[j].depth {
			return selected[i].depth < selected[j].depth
		}
		return selected[i].key < selected[j].key
	})
	f.numShared = len(selected)
	scratch := f.numShared
	prog := eval.MultiProg{}
	// Pass 3: emit shared prelude segments.
	for i, s := range selected {
		rep := f.reps[s.key]
		seg := eval.Segment{Start: len(f.code), Result: uint16(i)}
		f.reg(i)
		if err := f.fcompile(rep.node, scratch, rep.nameOp); err != nil {
			return nil, err
		}
		f.emit(eval.Instr{Kind: eval.IMov, Dst: uint16(i), A: uint16(f.reg(scratch))})
		seg.End = len(f.code)
		seg.Ops, seg.Deps = f.takeSeg()
		prog.Shared = append(prog.Shared, seg)
		f.emitted[s.key] = uint16(i)
	}
	// Pass 4: emit one segment per condition: enable short-circuits the
	// user condition exactly like EvalBits does (a falsy enable value is
	// itself the — falsy — result).
	for i, ir := range irs {
		seg := eval.Segment{Start: len(f.code), Result: uint16(f.reg(scratch))}
		switch {
		case ir.enable != nil && ir.cond != nil:
			if err := f.fcompile(ir.enable, scratch, irs[i].enOps); err != nil {
				return nil, err
			}
			j := f.emit(eval.Instr{Kind: eval.IJumpIfFalse, A: uint16(scratch)})
			if err := f.fcompile(ir.cond, scratch, irs[i].condOps); err != nil {
				return nil, err
			}
			f.patch(j)
		case ir.enable != nil:
			if err := f.fcompile(ir.enable, scratch, irs[i].enOps); err != nil {
				return nil, err
			}
		case ir.cond != nil:
			if err := f.fcompile(ir.cond, scratch, irs[i].condOps); err != nil {
				return nil, err
			}
		default:
			f.emit(eval.Instr{Kind: eval.IConst, Dst: uint16(scratch), Const: eval.Make(1, 1, false)})
		}
		seg.End = len(f.code)
		seg.Ops, seg.Deps = f.takeSeg()
		prog.Conds = append(prog.Conds, seg)
	}
	if f.maxReg >= 1<<16-1 || len(f.slots) >= 1<<16 {
		return nil, fmt.Errorf("expr: fused program exceeds register file (%d regs, %d operands)", f.maxReg+1, len(f.slots))
	}
	prog.Code = f.code
	prog.NumRegs = f.maxReg + 1
	prog.NumShared = f.numShared
	prog.NumOperands = len(f.slots)
	// Per-condition operand closures: what each condition observes
	// through its own reads plus its (transitive) shared dependencies.
	sharedClo := make([][]uint16, len(prog.Shared))
	for i, seg := range prog.Shared {
		sharedClo[i] = closure(seg, sharedClo)
	}
	closures := make([][]uint16, len(prog.Conds))
	for i, seg := range prog.Conds {
		closures[i] = closure(seg, sharedClo)
	}
	f.stats.Conds = len(conds)
	f.stats.SharedSegs = len(prog.Shared)
	f.stats.Operands = len(f.slots)
	return &FusedSchedule{Prog: prog, Slots: f.slots, OpClosures: closures, Stats: f.stats}, nil
}

// closure unions a segment's direct operand reads with the operand
// closures of the shared segments it depends on. Shared segments only
// reference earlier segments, so one forward pass suffices.
func closure(seg eval.Segment, sharedClo [][]uint16) []uint16 {
	out := make([]uint16, len(seg.Ops))
	copy(out, seg.Ops)
	for _, d := range seg.Deps {
		for _, o := range sharedClo[d] {
			out = addU16(out, o)
		}
	}
	return out
}

type fuseRep struct {
	node   Node
	nameOp map[string]uint16
	depth  int
}

type fuser struct {
	opIdx map[int]uint16 // caller slot -> operand index
	slots []int          // operand index -> caller slot

	count map[string]int
	reps  map[string]fuseRep

	code      []eval.Instr
	maxReg    int
	numShared int
	emitted   map[string]uint16

	segOps  []uint16
	segDeps []uint16

	stats FuseStats
}

// nameOps maps a program's dependency names to fused operand indexes,
// assigning operand-table entries keyed by the caller's slot ids.
func (f *fuser) nameOps(p *Program, slots []int) (map[string]uint16, error) {
	if len(slots) != len(p.Deps) {
		return nil, fmt.Errorf("%d deps but %d slots", len(p.Deps), len(slots))
	}
	m := make(map[string]uint16, len(p.Deps))
	for i, name := range p.Deps {
		s := slots[i]
		if s < 0 {
			return nil, fmt.Errorf("dependency %q has no slot", name)
		}
		idx, ok := f.opIdx[s]
		if !ok {
			idx = uint16(len(f.slots))
			f.opIdx[s] = idx
			f.slots = append(f.slots, s)
		}
		m[name] = idx
	}
	return m, nil
}

// canonKey builds the canonical value-numbering key of a subtree:
// structure plus operand slots, so identical computations over the same
// signals collide across conditions while sibling instances (same
// structure, different signals) stay distinct.
func canonKey(n Node, nameOp map[string]uint16) string {
	switch t := n.(type) {
	case numNode:
		sg := "u"
		if t.v.Signed {
			sg = "s"
		}
		return "#" + strconv.FormatUint(t.v.Bits, 16) + ":" + strconv.Itoa(t.v.Width) + sg
	case nameNode:
		return "s" + strconv.FormatUint(uint64(nameOp[t.name]), 10)
	case unaryNode:
		return "(" + t.op + canonKey(t.x, nameOp) + ")"
	case binNode:
		return "(" + canonKey(t.a, nameOp) + t.op + canonKey(t.b, nameOp) + ")"
	case ternaryNode:
		return "(" + canonKey(t.cond, nameOp) + "?" + canonKey(t.t, nameOp) + ":" + canonKey(t.f, nameOp) + ")"
	case bitsNode:
		return "(" + canonKey(t.x, nameOp) + "[" + strconv.Itoa(t.hi) + ":" + strconv.Itoa(t.lo) + "])"
	}
	return fmt.Sprintf("?%T", n)
}

func nodeDepth(n Node) int {
	switch t := n.(type) {
	case unaryNode:
		return nodeDepth(t.x) + 1
	case binNode:
		return maxInt2(nodeDepth(t.a), nodeDepth(t.b)) + 1
	case ternaryNode:
		return maxInt2(nodeDepth(t.cond), maxInt2(nodeDepth(t.t), nodeDepth(t.f))) + 1
	case bitsNode:
		return nodeDepth(t.x) + 1
	}
	return 0
}

func maxInt2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// scan counts unguarded evaluations of every non-leaf subtree. guarded
// means the subtree may be skipped by the original short-circuit
// evaluation order (&&/|| right sides, ternary arms) — such positions
// may read shared registers but must not force a hoist by themselves.
func (f *fuser) scan(n Node, nameOp map[string]uint16, guarded bool) {
	switch t := n.(type) {
	case numNode, nameNode:
		return
	case unaryNode:
		f.scan(t.x, nameOp, guarded)
	case binNode:
		f.scan(t.a, nameOp, guarded)
		f.scan(t.b, nameOp, guarded || t.op == "&&" || t.op == "||")
	case ternaryNode:
		f.scan(t.cond, nameOp, guarded)
		f.scan(t.t, nameOp, true)
		f.scan(t.f, nameOp, true)
	case bitsNode:
		f.scan(t.x, nameOp, guarded)
	}
	if guarded {
		return
	}
	key := canonKey(n, nameOp)
	f.count[key]++
	if _, ok := f.reps[key]; !ok {
		f.reps[key] = fuseRep{node: n, nameOp: nameOp, depth: nodeDepth(n)}
	}
}

func (f *fuser) emit(in eval.Instr) int {
	f.code = append(f.code, in)
	return len(f.code) - 1
}

func (f *fuser) reg(r int) int {
	if r > f.maxReg {
		f.maxReg = r
	}
	return r
}

func (f *fuser) patch(pc int) {
	f.code[pc].P0 = len(f.code)
}

// takeSeg returns and resets the current segment's operand/dependency
// accumulators.
func (f *fuser) takeSeg() (ops, deps []uint16) {
	if len(f.segOps) > 0 {
		ops = append([]uint16{}, f.segOps...)
	}
	if len(f.segDeps) > 0 {
		deps = append([]uint16{}, f.segDeps...)
	}
	f.segOps, f.segDeps = f.segOps[:0], f.segDeps[:0]
	return ops, deps
}

func addU16(list []uint16, v uint16) []uint16 {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}

// fcompile emits code leaving the node's value in register dst, using
// registers > dst as scratch (stack-style allocation). Names resolve
// through the fused operand table, and any subtree whose key has
// already been hoisted compiles to a single shared-register read —
// guarded occurrences included, since reading a register cannot fault
// and a poisoned source is caught through the segment's Deps. The
// short-circuit forms (&&, ||, ?:) compile to branches so the skipped
// side is never executed, exactly like EvalBits.
func (f *fuser) fcompile(n Node, dst int, nameOp map[string]uint16) error {
	switch n.(type) {
	case numNode, nameNode:
	default:
		if len(f.emitted) > 0 {
			if si, ok := f.emitted[canonKey(n, nameOp)]; ok {
				f.emit(eval.Instr{Kind: eval.IMov, Dst: uint16(f.reg(dst)), A: si})
				f.segDeps = addU16(f.segDeps, si)
				f.stats.SharedReads++
				return nil
			}
		}
	}
	switch t := n.(type) {
	case numNode:
		f.emit(eval.Instr{Kind: eval.IConst, Dst: uint16(f.reg(dst)), Const: t.v})
	case nameNode:
		idx, ok := nameOp[t.name]
		if !ok {
			return fmt.Errorf("expr: fuse: unknown dependency %q", t.name)
		}
		f.emit(eval.Instr{Kind: eval.ISig, Dst: uint16(f.reg(dst)), A: idx})
		f.segOps = addU16(f.segOps, idx)
	case unaryNode:
		if err := f.fcompile(t.x, dst, nameOp); err != nil {
			return err
		}
		switch t.op {
		case "~":
			f.emit(eval.Instr{Kind: eval.IPrim1, Op: ir.OpNot, Dst: uint16(f.reg(dst)), A: uint16(dst)})
		case "!":
			f.emit(eval.Instr{Kind: eval.ILogNot, Dst: uint16(f.reg(dst)), A: uint16(dst)})
		case "-":
			f.emit(eval.Instr{Kind: eval.IPrim1, Op: ir.OpNeg, Dst: uint16(f.reg(dst)), A: uint16(dst)})
		default:
			return fmt.Errorf("expr: fuse: unknown unary %q", t.op)
		}
	case binNode:
		return f.fcompileBin(t, dst, nameOp)
	case ternaryNode:
		if err := f.fcompile(t.cond, dst, nameOp); err != nil {
			return err
		}
		jElse := f.emit(eval.Instr{Kind: eval.IJumpIfFalse, A: uint16(dst)})
		if err := f.fcompile(t.t, dst, nameOp); err != nil {
			return err
		}
		jEnd := f.emit(eval.Instr{Kind: eval.IJump})
		f.patch(jElse)
		if err := f.fcompile(t.f, dst, nameOp); err != nil {
			return err
		}
		f.patch(jEnd)
	case bitsNode:
		if err := f.fcompile(t.x, dst, nameOp); err != nil {
			return err
		}
		f.emit(eval.Instr{Kind: eval.IBits, Dst: uint16(f.reg(dst)), A: uint16(dst), P0: t.hi, P1: t.lo})
	default:
		return fmt.Errorf("expr: fuse: unknown node type %T", n)
	}
	return nil
}

func (f *fuser) fcompileBin(t binNode, dst int, nameOp map[string]uint16) error {
	switch t.op {
	case "&&":
		if err := f.fcompile(t.a, dst, nameOp); err != nil {
			return err
		}
		jFalse := f.emit(eval.Instr{Kind: eval.IJumpIfFalse, A: uint16(dst)})
		if err := f.fcompile(t.b, dst, nameOp); err != nil {
			return err
		}
		f.emit(eval.Instr{Kind: eval.IBool, Dst: uint16(f.reg(dst)), A: uint16(dst)})
		jEnd := f.emit(eval.Instr{Kind: eval.IJump})
		f.patch(jFalse)
		f.emit(eval.Instr{Kind: eval.IConst, Dst: uint16(f.reg(dst)), Const: eval.Make(0, 1, false)})
		f.patch(jEnd)
		return nil
	case "||":
		if err := f.fcompile(t.a, dst, nameOp); err != nil {
			return err
		}
		jTrue := f.emit(eval.Instr{Kind: eval.IJumpIfTrue, A: uint16(dst)})
		if err := f.fcompile(t.b, dst, nameOp); err != nil {
			return err
		}
		f.emit(eval.Instr{Kind: eval.IBool, Dst: uint16(f.reg(dst)), A: uint16(dst)})
		jEnd := f.emit(eval.Instr{Kind: eval.IJump})
		f.patch(jTrue)
		f.emit(eval.Instr{Kind: eval.IConst, Dst: uint16(f.reg(dst)), Const: eval.Make(1, 1, false)})
		f.patch(jEnd)
		return nil
	}
	op, ok := binOps[t.op]
	if !ok {
		return fmt.Errorf("expr: fuse: unknown operator %q", t.op)
	}
	if err := f.fcompile(t.a, dst, nameOp); err != nil {
		return err
	}
	if err := f.fcompile(t.b, dst+1, nameOp); err != nil {
		return err
	}
	if op == ir.OpDshl {
		// Mirror applyBin: the dynamic-shift amount is capped to 6 bits
		// of magnitude to satisfy eval's width model.
		f.emit(eval.Instr{Kind: eval.ICapW, Dst: uint16(f.reg(dst + 1)), A: uint16(dst + 1), P0: 6})
	}
	f.emit(eval.Instr{Kind: eval.IPrim2, Op: op, Dst: uint16(f.reg(dst)), A: uint16(dst), B: uint16(dst + 1)})
	return nil
}
