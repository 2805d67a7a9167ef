package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/symtab"
	"repro/internal/val"
	"repro/internal/vpi"
)

// buildEvent reconstructs the stack-frame information for every hit
// instance (§3.2 step 3: "we reconstruct the stack frame based on the
// symbol table and then send the result to the user"). The symbol
// table is consulted once per statement instance, not once per stop:
// framePlan resolves the frame's layout at its first stop, and every
// stop reads fresh values through it.
func (rt *Runtime) buildEvent(g *group, hits []*insertedBP, time uint64, reverse, stepping bool) *StopEvent {
	ev := &StopEvent{
		Time:     time,
		File:     g.file,
		Line:     g.line,
		Col:      g.col,
		Threads:  make([]Thread, len(hits)),
		Reverse:  reverse,
		StepStop: stepping,
	}
	for i, ibp := range hits {
		locals, gen := rt.framePlan(ibp.bp)
		ev.Threads[i] = Thread{
			BreakpointID: ibp.bp.ID,
			Instance:     ibp.bp.InstanceName,
			Locals:       rt.readFrame(locals),
			Generator:    rt.readFrame(gen),
		}
	}
	slices.SortFunc(ev.Threads, func(a, b Thread) int { return strings.Compare(a.Instance, b.Instance) })
	return ev
}

// frameSlot is one variable of a frame layout: its source-level name
// and the simulator path its value is read from.
type frameSlot struct {
	name, path string
}

// framePlans caches stop-frame layouts, never values: each stopped
// statement instance's scope variables by breakpoint id, and each
// instance's generator variables by instance path (shared by every
// statement of that instance), both in display order. An entry is
// built at the first stop that needs it, so statements never stopped
// at cost nothing, and memory stays bounded by one list per statement
// instance plus one per design instance. Simulation goroutine only.
type framePlans struct {
	locals    map[int64][]frameSlot
	generator map[string][]frameSlot
}

// framePlan returns the frame layout of one breakpoint hit, resolving
// it through the symbol table and the simulator remap on first use.
func (rt *Runtime) framePlan(bp symtab.Breakpoint) (locals, gen []frameSlot) {
	p := &rt.plans
	locals, ok := p.locals[bp.ID]
	if !ok {
		locals = rt.planSlots(bp.InstanceName, rt.table.ScopeVars(bp.ID))
		p.locals[bp.ID] = locals
	}
	gen, ok = p.generator[bp.InstanceName]
	if !ok {
		if instID, found := rt.table.InstanceIDByName(bp.InstanceName); found {
			gen = rt.planSlots(bp.InstanceName, rt.table.GeneratorVars(instID))
		}
		p.generator[bp.InstanceName] = gen
	}
	return locals, gen
}

// planSlots lays out an instance's variable bindings in display order:
// names compare with naturalLess, so vector elements read v[2] before
// v[10].
func (rt *Runtime) planSlots(instance string, vars []symtab.VarBinding) []frameSlot {
	if len(vars) == 0 {
		return nil
	}
	slots := make([]frameSlot, len(vars))
	for i, b := range vars {
		slots[i] = frameSlot{name: b.Name, path: rt.remap.ToSim(instance + "." + b.RTL)}
	}
	slices.SortFunc(slots, func(a, b frameSlot) int { return naturalCmp(a.name, b.name) })
	return slots
}

// readFrame reads one frame's variables through its layout. An empty
// layout reads as a nil list (null on the JSON wire), not an empty one.
func (rt *Runtime) readFrame(slots []frameSlot) []Variable {
	if len(slots) == 0 {
		return nil
	}
	vars := make([]Variable, len(slots))
	for i, s := range slots {
		vars[i] = rt.frameVar(s.name, s.path)
	}
	return vars
}

// naturalLess orders variable names with digit runs compared
// numerically, so flattened vector elements sort as v[2] < v[10]
// instead of the lexicographic v[10] < v[2] (bracketed indices come
// from aggregate lowering, see passes.flattenType). Non-digit bytes
// compare as usual; equal numeric values with different spellings
// ("07" vs "7") fall back to the raw text so the order stays total.
func naturalLess(a, b string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if isDigit(a[i]) && isDigit(b[j]) {
			ia, jb := i, j
			for ia < len(a) && isDigit(a[ia]) {
				ia++
			}
			for jb < len(b) && isDigit(b[jb]) {
				jb++
			}
			da, db := trimZeros(a[i:ia]), trimZeros(b[j:jb])
			if len(da) != len(db) {
				return len(da) < len(db)
			}
			if da != db {
				return da < db
			}
			i, j = ia, jb
			continue
		}
		if a[i] != b[j] {
			return a[i] < b[j]
		}
		i++
		j++
	}
	if len(a)-i != len(b)-j {
		return len(a)-i < len(b)-j
	}
	return a < b
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func trimZeros(s string) string {
	for len(s) > 1 && s[0] == '0' {
		s = s[1:]
	}
	return s
}

// frameVar reads one frame variable. A failed backend read (a
// transient replay gap, an optimized-away net) does NOT drop the
// variable — that would make frame shapes flutter nondeterministically
// between stops — it emits the variable with the Unknown marker so
// clients can render a placeholder.
func (rt *Runtime) frameVar(name, full string) Variable {
	b, err := vpi.ReadBits(rt.backend, full)
	if err != nil {
		return Variable{Name: name, RTL: full, Unknown: true}
	}
	v := Variable{Name: name, RTL: full}
	v.SetBits(b)
	return v
}

// EvaluateBits computes a watch expression in the context of an
// instance with full four-state, arbitrary-width semantics — the path
// the protocol's evaluate request uses, so x/z and >64-bit signals
// render instead of erroring. Names resolve through the chain user
// conditions and watchpoints use (resolveSourceName), each as it is
// read.
func (rt *Runtime) EvaluateBits(instance, src string) (val.Bits, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return val.Bits{}, err
	}
	return expr.EvalBits(n, expr.BitsResolverFunc(func(name string) (val.Bits, error) {
		path, ok := rt.resolveSourceName(-1, instance, name)
		if !ok {
			return val.Bits{}, fmt.Errorf("core: cannot resolve %q in %s", name, instance)
		}
		return vpi.ReadBits(rt.backend, path)
	}))
}

// StructuredVars groups flat dotted variables into a tree for display —
// the paper's "reconstruct structured variables from a list of
// flattened RTL signals" (§4.2, dcmp.io as a PortBundle).
type StructuredVar struct {
	Name     string          `json:"name"`
	Leaf     *Variable       `json:"leaf,omitempty"`
	Children []StructuredVar `json:"children,omitempty"`
}

// Structure converts flat variables into a nested tree by splitting
// dotted names. The DAP adapter calls it at every scopes request; a
// list with no dotted name comes back as the sorted flat list, without
// building the tree's per-variable nodes and maps.
func Structure(vars []Variable) []StructuredVar {
	for i := range vars {
		if strings.IndexByte(vars[i].Name, '.') >= 0 {
			return structureTree(vars)
		}
	}
	return structureFlat(vars)
}

// structureTree is Structure for lists with dotted names.
func structureTree(vars []Variable) []StructuredVar {
	type nodeT struct {
		children map[string]*nodeT
		order    []string
		leaf     *Variable
	}
	root := &nodeT{children: map[string]*nodeT{}}
	for i := range vars {
		v := &vars[i]
		parts := splitDots(v.Name)
		cur := root
		for _, p := range parts {
			child, ok := cur.children[p]
			if !ok {
				child = &nodeT{children: map[string]*nodeT{}}
				cur.children[p] = child
				cur.order = append(cur.order, p)
			}
			cur = child
		}
		cur.leaf = v
	}
	sortNames := func(names []string) {
		sort.Slice(names, func(i, j int) bool { return naturalLess(names[i], names[j]) })
	}
	var build func(n *nodeT, name string) StructuredVar
	build = func(n *nodeT, name string) StructuredVar {
		sv := StructuredVar{Name: name, Leaf: n.leaf}
		sortNames(n.order)
		for _, childName := range n.order {
			sv.Children = append(sv.Children, build(n.children[childName], childName))
		}
		return sv
	}
	var out []StructuredVar
	sortNames(root.order)
	for _, name := range root.order {
		out = append(out, build(root.children[name], name))
	}
	return out
}

// splitDots splits a dotted path, keeping bracketed indices attached to
// their segment ("v[3].x" → ["v[3]", "x"]).
func splitDots(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

// structureFlat is Structure for names without dots: every variable is
// a root leaf, in structureTree's order, and of two variables with one
// name the later is kept, as in structureTree.
func structureFlat(vars []Variable) []StructuredVar {
	if len(vars) == 0 {
		return nil
	}
	out := make([]StructuredVar, len(vars))
	for i := range vars {
		out[i] = StructuredVar{Name: vars[i].Name, Leaf: &vars[i]}
	}
	// The sort is stable, so of equal names the later variable ends its
	// run and is the one kept.
	slices.SortStableFunc(out, func(a, b StructuredVar) int { return naturalCmp(a.Name, b.Name) })
	n := 0
	for _, sv := range out {
		if n > 0 && out[n-1].Name == sv.Name {
			out[n-1] = sv
			continue
		}
		out[n] = sv
		n++
	}
	return out[:n]
}

// naturalCmp is naturalLess as a three-way comparison.
func naturalCmp(a, b string) int {
	switch {
	case a == b:
		return 0
	case naturalLess(a, b):
		return -1
	}
	return 1
}
