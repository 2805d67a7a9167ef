package core

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/val"
	"repro/internal/vpi"
)

// pathBitsResolver resolves a breakpoint condition's names through its
// precomputed path map, reading four-state values for the general
// evaluator.
func (ibp *insertedBP) pathBitsResolver(rt *Runtime) expr.BitsResolver {
	return expr.BitsResolverFunc(func(name string) (val.Bits, error) {
		if full, ok := ibp.paths[name]; ok {
			return vpi.ReadBits(rt.backend, full)
		}
		return vpi.ReadBits(rt.backend, rt.remap.ToSim(ibp.bp.InstanceName+"."+name))
	})
}

// buildEvent reconstructs the stack-frame information for every hit
// instance (§3.2 step 3: "we reconstruct the stack frame based on the
// symbol table and then send the result to the user").
func (rt *Runtime) buildEvent(g *group, hits []*insertedBP, time uint64, reverse, stepping bool) *StopEvent {
	ev := &StopEvent{
		Time:     time,
		File:     g.file,
		Line:     g.line,
		Col:      g.col,
		Reverse:  reverse,
		StepStop: stepping,
	}
	for _, ibp := range hits {
		th := Thread{
			BreakpointID: ibp.bp.ID,
			Instance:     ibp.bp.InstanceName,
		}
		for _, b := range rt.table.ScopeVars(ibp.bp.ID) {
			full := rt.remap.ToSim(ibp.bp.InstanceName + "." + b.RTL)
			th.Locals = append(th.Locals, rt.frameVar(b.Name, full))
		}
		if instID, ok := rt.table.InstanceIDByName(ibp.bp.InstanceName); ok {
			for _, b := range rt.table.GeneratorVars(instID) {
				full := rt.remap.ToSim(ibp.bp.InstanceName + "." + b.RTL)
				th.Generator = append(th.Generator, rt.frameVar(b.Name, full))
			}
		}
		sortVars(th.Locals)
		sortVars(th.Generator)
		ev.Threads = append(ev.Threads, th)
	}
	sort.Slice(ev.Threads, func(i, j int) bool { return ev.Threads[i].Instance < ev.Threads[j].Instance })
	return ev
}

func sortVars(vars []Variable) {
	sort.Slice(vars, func(i, j int) bool { return naturalLess(vars[i].Name, vars[j].Name) })
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
// render instead of erroring. Source-level names resolve through
// generator variables, then instance-local RTL names, then absolute
// paths.
func (rt *Runtime) EvaluateBits(instance, src string) (val.Bits, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return val.Bits{}, err
	}
	return expr.EvalBits(n, expr.BitsResolverFunc(func(name string) (val.Bits, error) {
		if rtlPath, err := rt.table.ResolveInstanceVar(instance, name); err == nil {
			return vpi.ReadBits(rt.backend, rt.remap.ToSim(rtlPath))
		}
		if b, err := vpi.ReadBits(rt.backend, rt.remap.ToSim(instance+"."+name)); err == nil {
			return b, nil
		}
		if b, err := vpi.ReadBits(rt.backend, name); err == nil {
			return b, nil
		}
		return val.Bits{}, fmt.Errorf("core: cannot resolve %q in %s", name, instance)
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
// dotted names.
func Structure(vars []Variable) []StructuredVar {
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
