package rtl

import (
	"fmt"
	"sort"

	"repro/internal/eval"
	"repro/internal/ir"
)

// Elaborate flattens a Low-form circuit into a Netlist: instances are
// inlined with dot-separated path prefixes, combinational assignments
// are topologically sorted (combinational loops are reported as
// errors), and every assign, register next-value and memory write port
// is lowered into the netlist's flat Program. Lowering types each
// expression through eval.Prim, so an operation eval.Prim rejects (a
// shl or cat result wider than 64 bits) is an error naming the signal.
func Elaborate(c *ir.Circuit) (*Netlist, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nl := &Netlist{Top: c.Main, byName: map[string]*Signal{}}
	el := &elaborator{c: c, nl: nl, typeEnvs: map[string]*ir.TypeEnv{}}

	root := &InstanceNode{Name: c.Main, Module: c.Main, Path: c.Main}
	nl.Hierarchy = root
	if err := el.instantiate(c.Main+".", c.MainModule(), root, true); err != nil {
		return nil, err
	}
	if err := el.finish(); err != nil {
		return nil, err
	}
	return nl, nil
}

type pendingAssign struct {
	dst    string // full signal name
	expr   ir.Expr
	prefix string // expression name scope
	isReg  bool
}

type elaborator struct {
	c        *ir.Circuit
	nl       *Netlist
	typeEnvs map[string]*ir.TypeEnv
	assigns  []pendingAssign
	memWr    []pendingMemWrite
}

type pendingMemWrite struct {
	mem    string // full memory name
	w      *ir.MemWrite
	prefix string
}

func (el *elaborator) typeEnv(m *ir.Module) *ir.TypeEnv {
	env, ok := el.typeEnvs[m.Name]
	if !ok {
		env = ir.NewTypeEnv(el.c, m)
		el.typeEnvs[m.Name] = env
	}
	return env
}

func (el *elaborator) instantiate(prefix string, m *ir.Module, node *InstanceNode, isTop bool) error {
	env := el.typeEnv(m)
	// Ports first.
	for _, p := range m.Ports {
		g, ok := p.Tpe.(ir.Ground)
		if !ok {
			return fmt.Errorf("rtl: aggregate port %s.%s reached elaboration", m.Name, p.Name)
		}
		kind := KindNode
		if isTop && p.Dir == ir.Input {
			kind = KindInput
		}
		sig := el.nl.addSignal(prefix+p.Name, g.Width, g.Signed(), kind)
		node.Signals = append(node.Signals, p.Name)
		if isTop {
			if p.Dir == ir.Input {
				el.nl.Inputs = append(el.nl.Inputs, sig)
			} else {
				el.nl.Outputs = append(el.nl.Outputs, sig)
			}
		}
	}
	regNames := map[string]bool{}
	for _, s := range m.Body {
		switch d := s.(type) {
		case *ir.DefNode:
			t, err := env.TypeOf(d.Value)
			if err != nil {
				return fmt.Errorf("rtl: %s: node %s cannot be typed (combinational loop or undeclared reference): %w", m.Name, d.Name, err)
			}
			g := ir.GroundOf(t)
			el.nl.addSignal(prefix+d.Name, g.Width, g.Signed(), KindNode)
			node.Signals = append(node.Signals, d.Name)
			el.assigns = append(el.assigns, pendingAssign{dst: prefix + d.Name, expr: d.Value, prefix: prefix})
		case *ir.DefReg:
			g := ir.GroundOf(d.Tpe)
			el.nl.addSignal(prefix+d.Name, g.Width, g.Signed(), KindReg)
			node.Signals = append(node.Signals, d.Name)
			regNames[d.Name] = true
		case *ir.DefMem:
			el.nl.Mems = append(el.nl.Mems, &MemSpec{
				Name:  prefix + d.Name,
				Width: d.Tpe.Width,
				Depth: d.Depth,
			})
		case *ir.MemWrite:
			el.memWr = append(el.memWr, pendingMemWrite{mem: prefix + d.Mem, w: d, prefix: prefix})
		case *ir.DefInstance:
			child := el.c.Module(d.Module)
			childNode := &InstanceNode{Name: d.Name, Module: d.Module, Path: prefix + d.Name}
			node.Children = append(node.Children, childNode)
			if err := el.instantiate(prefix+d.Name+".", child, childNode, false); err != nil {
				return err
			}
		case *ir.Connect:
			switch loc := d.Loc.(type) {
			case ir.Ref:
				el.assigns = append(el.assigns, pendingAssign{
					dst:    prefix + loc.Name,
					expr:   d.Value,
					prefix: prefix,
					isReg:  regNames[loc.Name],
				})
			case ir.SubField:
				ref, ok := loc.E.(ir.Ref)
				if !ok {
					return fmt.Errorf("rtl: unsupported connect target %s", d.Loc)
				}
				el.assigns = append(el.assigns, pendingAssign{
					dst:    prefix + ref.Name + "." + loc.Name,
					expr:   d.Value,
					prefix: prefix,
				})
			default:
				return fmt.Errorf("rtl: unsupported connect target %s", d.Loc)
			}
		default:
			return fmt.Errorf("rtl: unexpected statement %T in Low form module %s", s, m.Name)
		}
	}
	return nil
}

// finish topologically sorts the combinational assignments and lowers
// them, the register next-values and the memory write ports into the
// netlist's Program.
func (el *elaborator) finish() error {
	// Split reg-next assigns from combinational assigns.
	combByDst := map[string]*pendingAssign{}
	var combOrder []string
	for i := range el.assigns {
		pa := &el.assigns[i]
		if pa.isReg {
			continue
		}
		if prev, dup := combByDst[pa.dst]; dup {
			return fmt.Errorf("rtl: signal %q assigned twice (%s and %s)", pa.dst, prev.expr, pa.expr)
		}
		combByDst[pa.dst] = pa
		combOrder = append(combOrder, pa.dst)
	}

	// Topological sort with cycle detection (white/grey/black DFS).
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var sorted []string
	var visit func(name string, stack []string) error
	visit = func(name string, stack []string) error {
		switch color[name] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("rtl: combinational loop through %q (path: %v)", name, stack)
		}
		color[name] = grey
		pa, isComb := combByDst[name]
		if isComb {
			for _, dep := range collectRefs(pa.prefix, pa.expr) {
				if _, combDep := combByDst[dep]; combDep {
					if err := visit(dep, append(stack, name)); err != nil {
						return err
					}
				}
			}
		}
		color[name] = black
		if isComb {
			sorted = append(sorted, name)
		}
		return nil
	}
	for _, dst := range combOrder {
		if err := visit(dst, nil); err != nil {
			return err
		}
	}

	lw := newLowerer(el.nl)
	prog := &Program{}
	for _, dst := range sorted {
		pa := combByDst[dst]
		sig, ok := el.nl.byName[dst]
		if !ok {
			return fmt.Errorf("rtl: assignment to unknown signal %q", dst)
		}
		if err := lw.assign(&prog.Settle, pa.prefix, pa.expr, int32(sig.Index), sig.Width); err != nil {
			return fmt.Errorf("rtl: %s %s: %w", sig.Kind, dst, err)
		}
	}

	// Register next-values in name order, each into a temporary so the
	// registers commit atomically; the write-port operands; then the
	// memory writes and the register commits.
	var regs []*pendingAssign
	for i := range el.assigns {
		if el.assigns[i].isReg {
			regs = append(regs, &el.assigns[i])
		}
	}
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].dst < regs[j].dst })
	var commits []eval.Instr
	for _, pa := range regs {
		sig, ok := el.nl.byName[pa.dst]
		if !ok {
			return fmt.Errorf("rtl: next-value for unknown register %q", pa.dst)
		}
		el.nl.Regs = append(el.nl.Regs, sig)
		next := lw.slot(0)
		if err := lw.assign(&prog.Edge, pa.prefix, pa.expr, next, sig.Width); err != nil {
			return fmt.Errorf("rtl: register %s: %w", sig.Name, err)
		}
		commits = append(commits, eval.Instr{Op: eval.OpMask, Dst: int32(sig.Index), A: next, Mask: eval.Mask(sig.Width)})
	}
	for _, pw := range el.memWr {
		if _, ok := lw.mems[pw.mem]; !ok {
			return fmt.Errorf("rtl: write to unknown memory %q", pw.mem)
		}
	}
	sort.SliceStable(el.memWr, func(i, j int) bool { return lw.mems[el.memWr[i].mem] < lw.mems[el.memWr[j].mem] })
	var writes []eval.Instr
	for _, pw := range el.memWr {
		var port [3]int32
		for i, e := range [3]ir.Expr{pw.w.En, pw.w.Addr, pw.w.Data} {
			op, err := lw.lower(&prog.Edge, pw.prefix, e, -1, 0)
			if err != nil {
				return fmt.Errorf("rtl: write port of memory %s: %w", pw.mem, err)
			}
			port[i] = op.Slot
		}
		mi := lw.mems[pw.mem]
		writes = append(writes, eval.Instr{Op: eval.OpMemWrite, A: port[0], B: port[1], C: port[2],
			Imm: uint32(mi), Mask: eval.Mask(el.nl.Mems[mi].Width)})
	}
	prog.Edge = append(append(prog.Edge, writes...), commits...)
	prog.Init = lw.init
	el.nl.Program = prog
	return nil
}
