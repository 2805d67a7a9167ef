package passes

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/ir"
)

// SSA performs the combined ExpandWhens + Static Single Assignment
// transform of §3.1: `when` blocks are flattened into muxes, every wire
// assignment produces a fresh temporary (sum → sum_0, sum_1, …), and the
// symbol information linking source lines to those temporaries — with
// their enable conditions — is emitted as a byproduct. The output is
// Low form: only ground-typed, single-assignment nodes, registers with
// a single next-value connect, memories, and instances.
//
// Wire reads follow software sequencing: a read observes the most
// recent assignment, which is what makes the paper's Listing 1
// accumulator meaningful in hardware.
type SSA struct{}

// Name implements Pass.
func (*SSA) Name() string { return "ssa" }

// Run implements Pass.
func (*SSA) Run(comp *Compilation) error {
	for i, m := range comp.Circuit.Modules {
		sc := newSSACtx(comp, m)
		nm, err := sc.run()
		if err != nil {
			return fmt.Errorf("module %s: %w", m.Name, err)
		}
		comp.Circuit.Modules[i] = nm
	}
	return nil
}

type sigKind int

const (
	kInput sigKind = iota
	kOutput
	kWire
	kReg
	kNode
	kMem
	kInstance
)

type ssaCtx struct {
	comp  *Compilation
	mod   *ir.Module
	out   []ir.Stmt
	kinds map[string]sigKind
	// env holds the current SSA value for wires/outputs and the pending
	// next-value expression for registers; instance input nets are keyed
	// "inst.port".
	env     map[string]ir.Expr
	regs    []*ir.DefReg
	regInit map[string]ir.Expr
	// wireOrder/outputs/instInputs preserve declaration order for
	// deterministic finalization.
	wireOrder  []string
	outputs    []string
	instIn     []string
	names      map[string]bool
	namedNodes map[string]bool
	// declDepth records the enable-stack depth at which each net was
	// declared; nets declared inside a When branch are scoped to it and
	// excluded from that When's merge.
	declDepth map[string]int
	tempN     int
	genN      int
	ssaN      map[string]int
	enables   []ir.Expr
	order     int
}

func newSSACtx(comp *Compilation, m *ir.Module) *ssaCtx {
	sc := &ssaCtx{
		comp:       comp,
		mod:        m,
		kinds:      map[string]sigKind{},
		env:        map[string]ir.Expr{},
		regInit:    map[string]ir.Expr{},
		names:      map[string]bool{},
		namedNodes: map[string]bool{},
		declDepth:  map[string]int{},
		ssaN:       map[string]int{},
	}
	for _, p := range m.Ports {
		sc.names[p.Name] = true
		if p.Dir == ir.Input {
			sc.kinds[p.Name] = kInput
		} else {
			sc.kinds[p.Name] = kOutput
			sc.outputs = append(sc.outputs, p.Name)
		}
	}
	ir.WalkStmts(m.Body, func(s ir.Stmt) {
		switch d := s.(type) {
		case *ir.DefWire:
			sc.names[d.Name] = true
		case *ir.DefReg:
			sc.names[d.Name] = true
		case *ir.DefNode:
			sc.names[d.Name] = true
		case *ir.DefMem:
			sc.names[d.Name] = true
		case *ir.DefInstance:
			sc.names[d.Name] = true
		}
	})
	return sc
}

func (sc *ssaCtx) run() (*ir.Module, error) {
	if err := sc.process(sc.mod.Body); err != nil {
		return nil, err
	}
	// Finalize wires: re-expose the original wire name as an alias node
	// of its final SSA value (Listing 2's trailing `sum = sum2`).
	for _, w := range sc.wireOrder {
		if v := sc.env[w]; v != nil {
			sc.emit(&ir.DefNode{Name: w, Value: v})
			sc.kinds[w] = kNode
		}
	}
	// Finalize outputs.
	for _, o := range sc.outputs {
		v := sc.env[o]
		if v == nil {
			return nil, fmt.Errorf("output port %q is never assigned", o)
		}
		sc.emit(&ir.Connect{Loc: ir.Ref{Name: o}, Value: v})
	}
	// Finalize instance inputs.
	for _, key := range sc.instIn {
		v := sc.env[key]
		if v == nil {
			return nil, fmt.Errorf("instance input %q is never assigned", key)
		}
		dot := strings.IndexByte(key, '.')
		sc.emit(&ir.Connect{
			Loc:   ir.SubField{E: ir.Ref{Name: key[:dot]}, Name: key[dot+1:]},
			Value: v,
		})
	}
	// Finalize registers: next-value connect, qualified by reset.
	for _, r := range sc.regs {
		next := sc.env[r.Name]
		if next == nil {
			next = ir.Ref{Name: r.Name} // hold
		}
		if init, ok := sc.regInit[r.Name]; ok {
			next = ir.Mux{Cond: ir.Ref{Name: "reset"}, T: init, F: next}
		}
		sc.emit(&ir.Connect{Loc: ir.Ref{Name: r.Name}, Value: next, Info: r.Info})
	}
	return &ir.Module{Name: sc.mod.Name, Ports: sc.mod.Ports, Body: sc.out, Attrs: sc.mod.Attrs}, nil
}

func (sc *ssaCtx) emit(s ir.Stmt) { sc.out = append(sc.out, s) }

// newName reserves a fresh signal name derived from base.
func (sc *ssaCtx) newName(base string, counter *int) string {
	for {
		name := fmt.Sprintf("%s_%d", base, *counter)
		*counter++
		if !sc.names[name] {
			sc.names[name] = true
			return name
		}
	}
}

func (sc *ssaCtx) newSSATemp(wire string) string {
	n := sc.ssaN[wire]
	name := sc.newName(wire, &n)
	sc.ssaN[wire] = n
	return name
}

func (sc *ssaCtx) process(body []ir.Stmt) error {
	for _, s := range body {
		switch d := s.(type) {
		case *ir.DefWire:
			sc.kinds[d.Name] = kWire
			sc.declDepth[d.Name] = len(sc.enables)
			sc.wireOrder = append(sc.wireOrder, d.Name)
		case *ir.DefReg:
			sc.kinds[d.Name] = kReg
			sc.declDepth[d.Name] = len(sc.enables)
			sc.regs = append(sc.regs, d)
			if d.Init != nil {
				init, err := sc.subst(d.Init)
				if err != nil {
					return err
				}
				sc.regInit[d.Name] = init
			}
			sc.emit(&ir.DefReg{Name: d.Name, Tpe: d.Tpe, Info: d.Info})
		case *ir.DefNode:
			v, err := sc.subst(d.Value)
			if err != nil {
				return err
			}
			sc.recordSymbol(s)
			sc.kinds[d.Name] = kNode
			if d.Info.Valid() {
				sc.namedNodes[d.Name] = true
			}
			sc.emit(&ir.DefNode{Name: d.Name, Value: v, Info: d.Info})
		case *ir.DefMem:
			sc.kinds[d.Name] = kMem
			sc.emit(d)
		case *ir.DefInstance:
			sc.kinds[d.Name] = kInstance
			sc.emit(d)
			// Track the child's input ports as connectable nets.
			child := sc.comp.Circuit.Module(d.Module)
			if child == nil {
				return fmt.Errorf("instance %q of unknown module %q", d.Name, d.Module)
			}
			for _, p := range child.Ports {
				if p.Dir == ir.Input {
					sc.instIn = append(sc.instIn, d.Name+"."+p.Name)
					sc.declDepth[d.Name+"."+p.Name] = len(sc.enables)
				}
			}
		case *ir.MemWrite:
			addr, err := sc.subst(d.Addr)
			if err != nil {
				return err
			}
			data, err := sc.subst(d.Data)
			if err != nil {
				return err
			}
			en, err := sc.subst(d.En)
			if err != nil {
				return err
			}
			if g := andReduce(sc.enables); g != nil {
				en = ir.NewPrim(ir.OpAnd, g, en)
			}
			sc.recordSymbol(s)
			sc.emit(&ir.MemWrite{Mem: d.Mem, Addr: addr, Data: data, En: en, Info: d.Info})
		case *ir.Connect:
			if err := sc.processConnect(d); err != nil {
				return err
			}
		case *ir.When:
			if err := sc.processWhen(d); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported statement %T in SSA input", s)
		}
	}
	return nil
}

func (sc *ssaCtx) processConnect(c *ir.Connect) error {
	v, err := sc.subst(c.Value)
	if err != nil {
		return err
	}
	// Snapshot symbol info BEFORE updating the environment: a debugger
	// stops before the line executes, so `sum` at Listing 2 line 4 must
	// read sum_0, not sum_1.
	sc.recordSymbol(c)
	switch loc := c.Loc.(type) {
	case ir.Ref:
		switch sc.kinds[loc.Name] {
		case kWire, kOutput:
			temp := sc.newSSATemp(loc.Name)
			sc.kinds[temp] = kNode
			sc.emit(&ir.DefNode{Name: temp, Value: v, Info: c.Info})
			sc.env[loc.Name] = ir.Ref{Name: temp}
		case kReg:
			sc.env[loc.Name] = v
		case kInput:
			return fmt.Errorf("cannot assign to input port %q", loc.Name)
		default:
			return fmt.Errorf("cannot assign to %q (not a wire, register, or output)", loc.Name)
		}
	case ir.SubField:
		ref, ok := loc.E.(ir.Ref)
		if !ok || sc.kinds[ref.Name] != kInstance {
			return fmt.Errorf("unsupported connect target %s", c.Loc)
		}
		sc.env[ref.Name+"."+loc.Name] = v
	default:
		return fmt.Errorf("unsupported connect target %s", c.Loc)
	}
	return nil
}

func (sc *ssaCtx) processWhen(w *ir.When) error {
	condV, err := sc.subst(w.Cond)
	if err != nil {
		return err
	}
	// Name the condition so enable expressions reference one signal the
	// debugger can fetch (and the simulator computes anyway).
	var condRef ir.Expr
	switch condV.(type) {
	case ir.Ref, ir.Const:
		condRef = condV
	default:
		name := sc.newName("_T", &sc.tempN)
		sc.kinds[name] = kNode
		sc.emit(&ir.DefNode{Name: name, Value: condV, Info: w.Info})
		condRef = ir.Ref{Name: name}
	}

	saved := copyEnv(sc.env)

	sc.enables = append(sc.enables, condRef)
	if err := sc.process(w.Then); err != nil {
		return err
	}
	sc.enables = sc.enables[:len(sc.enables)-1]
	thenEnv := sc.env

	sc.env = copyEnv(saved)
	sc.enables = append(sc.enables, ir.NewPrim(ir.OpNot, condRef))
	if err := sc.process(w.Else); err != nil {
		return err
	}
	sc.enables = sc.enables[:len(sc.enables)-1]
	elseEnv := sc.env

	// Merge: for every net whose value diverged between branches, emit a
	// mux temporary (FIRRTL's _GEN_n nodes, visible in the paper's
	// Listing 4).
	merged := copyEnv(saved)
	depth := len(sc.enables)
	for _, name := range union(thenEnv, elseEnv) {
		// Nets declared inside either branch are scoped to it; they do
		// not merge and are unreadable afterwards.
		if sc.declDepth[name] > depth {
			continue
		}
		tv, ev := thenEnv[name], elseEnv[name]
		if exprEqual(tv, ev) {
			merged[name] = tv
			continue
		}
		if tv == nil || ev == nil {
			// Assigned on only one path with no prior default: for a
			// register this means "hold", expressed as the register
			// itself; for anything else it is an initialization bug.
			if sc.kinds[name] == kReg {
				hold := ir.Expr(ir.Ref{Name: name})
				if tv == nil {
					tv = hold
				}
				if ev == nil {
					ev = hold
				}
			} else {
				return fmt.Errorf("net %q conditionally assigned at %s without a prior unconditional assignment", name, w.Info)
			}
		}
		gen := sc.newName("_GEN", &sc.genN)
		sc.kinds[gen] = kNode
		sc.emit(&ir.DefNode{Name: gen, Value: ir.Mux{Cond: condRef, T: tv, F: ev}, Info: w.Info})
		merged[name] = ir.Ref{Name: gen}
	}
	sc.env = merged
	return nil
}

// subst rewrites reads of wires/outputs to their current SSA values.
func (sc *ssaCtx) subst(e ir.Expr) (ir.Expr, error) {
	var substErr error
	out := ir.MapExpr(e, func(sub ir.Expr) ir.Expr {
		r, ok := sub.(ir.Ref)
		if !ok {
			return sub
		}
		switch sc.kinds[r.Name] {
		case kWire, kOutput:
			v := sc.env[r.Name]
			if v == nil {
				if substErr == nil {
					substErr = fmt.Errorf("read of %q before any assignment", r.Name)
				}
				return sub
			}
			return v
		default:
			return sub
		}
	})
	return out, substErr
}

// recordSymbol emits a SymbolEntry for an annotated statement.
func (sc *ssaCtx) recordSymbol(s ir.Stmt) {
	ann := sc.comp.Annotations[s]
	if ann == nil {
		return
	}
	entry := &SymbolEntry{
		Module:    sc.mod.Name,
		File:      ann.Info.File,
		Line:      ann.Info.Line,
		Col:       ann.Info.Col,
		Order:     sc.order,
		Enable:    andReduce(sc.enables),
		EnableSrc: ann.EnableSrc,
		Vars:      sc.snapshotVars(),
	}
	sc.order++
	sc.comp.Symbols = append(sc.comp.Symbols, entry)
}

// snapshotVars captures the visible variable bindings: wires and
// outputs resolve to their current SSA temporary; registers, inputs,
// and named nodes resolve to themselves.
func (sc *ssaCtx) snapshotVars() map[string]string {
	vars := map[string]string{}
	for name, kind := range sc.kinds {
		switch kind {
		case kWire, kOutput:
			if v, ok := sc.env[name].(ir.Ref); ok {
				vars[name] = v.Name
			}
		case kReg:
			vars[name] = name
		case kInput:
			if name != "clock" && name != "reset" {
				vars[name] = name
			}
		case kNode:
			if sc.namedNodes[name] {
				vars[name] = name
			}
		}
	}
	return vars
}

func copyEnv(env map[string]ir.Expr) map[string]ir.Expr {
	out := make(map[string]ir.Expr, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// union returns the names bound in either environment, sorted, so the
// merge muxes are numbered the same way on every compile.
func union(a, b map[string]ir.Expr) []string {
	names := slices.Collect(maps.Keys(a))
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	return names
}

func exprEqual(a, b ir.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}
