package sim_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/fpu"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/riscv"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// refSim is the lockstep reference for the simulator's flat program:
// the expression-tree simulator the program replaced, kept in test
// code. It flattens the Low-form circuit itself and evaluates every
// node through eval.Prim and eval.Mux, never through rtl.Program.
// Like the tree simulator it stores an assign's value with the
// expression's own type, clamped to the declared type only where the
// widths differ. It shares nothing with the simulator but the
// netlist's signal indices and memory list.
type refSim struct {
	nl     *rtl.Netlist
	vals   []eval.Value // indexed by signal
	mems   [][]uint64   // indexed like nl.Mems
	comb   []refAssign  // topological order
	regs   []refAssign
	writes []refWrite // by memory, then port
	next   []eval.Value
}

type refAssign struct {
	dst *rtl.Signal
	e   *refNode
}

type refWrite struct {
	mem            int
	en, addr, data *refNode
}

type refKind int

const (
	refSignal refKind = iota
	refConst
	refPrim
	refMux
	refMemRead
)

type refNode struct {
	kind   refKind
	idx    int        // refSignal: signal index; refMemRead: memory index
	v      eval.Value // refConst
	op     ir.PrimOp
	params []int
	args   []*refNode // prim operands; mux cond, t, f; memory read address
}

func newRefSim(t testing.TB, c *ir.Circuit, nl *rtl.Netlist) *refSim {
	t.Helper()
	r := &refSim{nl: nl, vals: make([]eval.Value, len(nl.Signals)), mems: make([][]uint64, len(nl.Mems))}
	for i, sig := range nl.Signals {
		r.vals[i] = eval.Make(0, sig.Width, sig.Signed)
	}
	memIdx := map[string]int{}
	for i, m := range nl.Mems {
		r.mems[i] = make([]uint64, m.Depth)
		memIdx[m.Name] = i
	}
	signal := func(name string) *rtl.Signal {
		sig, ok := nl.Signal(name)
		if !ok {
			t.Fatalf("reference: unresolved signal %q", name)
		}
		return sig
	}
	var resolve func(scope string, e ir.Expr) *refNode
	resolve = func(scope string, e ir.Expr) *refNode {
		switch x := e.(type) {
		case ir.Ref:
			return &refNode{kind: refSignal, idx: signal(scope + x.Name).Index}
		case ir.SubField:
			return &refNode{kind: refSignal, idx: signal(scope + x.E.(ir.Ref).Name + "." + x.Name).Index}
		case ir.Const:
			return &refNode{kind: refConst, v: eval.FromConst(x)}
		case ir.Prim:
			n := &refNode{kind: refPrim, op: x.Op, params: x.Params}
			for _, a := range x.Args {
				n.args = append(n.args, resolve(scope, a))
			}
			return n
		case ir.Mux:
			return &refNode{kind: refMux, args: []*refNode{resolve(scope, x.Cond), resolve(scope, x.T), resolve(scope, x.F)}}
		case ir.MemRead:
			return &refNode{kind: refMemRead, idx: memIdx[scope+x.Mem], args: []*refNode{resolve(scope, x.Addr)}}
		}
		t.Fatalf("reference: cannot evaluate %T (%s)", e, e)
		return nil
	}

	var comb []refAssign
	var walk func(prefix string, m *ir.Module)
	walk = func(prefix string, m *ir.Module) {
		regs := map[string]bool{}
		for _, s := range m.Body {
			switch d := s.(type) {
			case *ir.DefNode:
				comb = append(comb, refAssign{signal(prefix + d.Name), resolve(prefix, d.Value)})
			case *ir.DefReg:
				regs[d.Name] = true
			case *ir.MemWrite:
				r.writes = append(r.writes, refWrite{memIdx[prefix+d.Mem], resolve(prefix, d.En), resolve(prefix, d.Addr), resolve(prefix, d.Data)})
			case *ir.DefInstance:
				walk(prefix+d.Name+".", c.Module(d.Module))
			case *ir.Connect:
				a := refAssign{e: resolve(prefix, d.Value)}
				switch loc := d.Loc.(type) {
				case ir.Ref:
					a.dst = signal(prefix + loc.Name)
					if regs[loc.Name] {
						r.regs = append(r.regs, a)
						continue
					}
				case ir.SubField:
					a.dst = signal(prefix + loc.E.(ir.Ref).Name + "." + loc.Name)
				}
				comb = append(comb, a)
			}
		}
	}
	walk(c.Main+".", c.MainModule())
	sort.SliceStable(r.writes, func(i, j int) bool { return r.writes[i].mem < r.writes[j].mem })
	r.next = make([]eval.Value, len(r.regs))

	// Topological order of the combinational assigns.
	byDst := map[int]*refAssign{}
	for i := range comb {
		byDst[comb[i].dst.Index] = &comb[i]
	}
	done := map[int]bool{}
	var deps func(n *refNode, visit func(int))
	deps = func(n *refNode, visit func(int)) {
		if n.kind == refSignal {
			visit(n.idx)
		}
		for _, a := range n.args {
			deps(a, visit)
		}
	}
	var visit func(i int)
	visit = func(i int) {
		a, ok := byDst[i]
		if !ok || done[i] {
			return
		}
		done[i] = true
		deps(a.e, visit)
		r.comb = append(r.comb, *a)
	}
	for _, a := range comb {
		visit(a.dst.Index)
	}
	return r
}

func (r *refSim) eval(n *refNode) eval.Value {
	switch n.kind {
	case refSignal:
		return r.vals[n.idx]
	case refConst:
		return n.v
	case refMux:
		return eval.Mux(r.eval(n.args[0]), r.eval(n.args[1]), r.eval(n.args[2]))
	case refMemRead:
		data, w := r.mems[n.idx], r.nl.Mems[n.idx].Width
		if a := r.eval(n.args[0]).Bits; a < uint64(len(data)) {
			return eval.Make(data[a], w, false)
		}
		return eval.Make(0, w, false)
	}
	var buf [2]eval.Value
	args := buf[:0]
	for _, a := range n.args {
		args = append(args, r.eval(a))
	}
	v, err := eval.Prim(n.op, n.params, args)
	if err != nil {
		panic(fmt.Sprintf("reference: %s: %v", n.op, err))
	}
	return v
}

// store is the tree simulator's assign: the expression's value, clamped
// to the destination's declared type where the widths differ.
func store(dst *rtl.Signal, v eval.Value) eval.Value {
	if v.Width != dst.Width {
		return eval.Make(v.Bits, dst.Width, dst.Signed)
	}
	return v
}

func (r *refSim) settle() {
	for _, a := range r.comb {
		r.vals[a.dst.Index] = store(a.dst, r.eval(a.e))
	}
}

// step is the tree simulator's clock edge without callbacks: settle,
// every register next-value and memory write against the pre-edge
// state, then commit.
func (r *refSim) step() {
	r.settle()
	for i, a := range r.regs {
		r.next[i] = store(a.dst, r.eval(a.e))
	}
	type commit struct {
		mem        int
		addr, data uint64
	}
	var commits []commit
	for _, w := range r.writes {
		if r.eval(w.en).IsTrue() {
			if addr := r.eval(w.addr).Bits; addr < uint64(len(r.mems[w.mem])) {
				commits = append(commits, commit{w.mem, addr, r.eval(w.data).Bits & eval.Mask(r.nl.Mems[w.mem].Width)})
			}
		}
	}
	for i, a := range r.regs {
		r.vals[a.dst.Index] = r.next[i]
	}
	for _, c := range commits {
		r.mems[c.mem][c.addr] = c.data
	}
}

// lockstep drives the simulator and the reference with the same pokes,
// memory writes and edges, comparing every signal after every edge and
// every memory word every memEvery edges.
type lockstep struct {
	t     *testing.T
	s     *sim.Simulator
	r     *refSim
	edges int
}

const memEvery = 97

func newLockstep(t *testing.T, c *ir.Circuit, s *sim.Simulator) *lockstep {
	return &lockstep{t: t, s: s, r: newRefSim(t, c, s.Netlist())}
}

func (l *lockstep) poke(name string, v uint64) {
	l.t.Helper()
	if err := l.s.Poke(name, v); err != nil {
		l.t.Fatal(err)
	}
	sig, _ := l.s.Netlist().Signal(name)
	l.r.vals[sig.Index] = eval.Make(v, sig.Width, sig.Signed)
}

func (l *lockstep) writeMem(name string, addr, v uint64) {
	l.t.Helper()
	if err := l.s.WriteMem(name, addr, v); err != nil {
		l.t.Fatal(err)
	}
	for i, m := range l.s.Netlist().Mems {
		if m.Name == name {
			l.r.mems[i][addr] = v & eval.Mask(m.Width)
		}
	}
}

func (l *lockstep) step() {
	l.t.Helper()
	l.s.Step()
	l.r.step()
	l.edges++
	for i, sig := range l.s.Netlist().Signals {
		if got, _ := l.s.PeekIndex(i); got != l.r.vals[i] {
			l.t.Fatalf("edge %d: %s = %s, reference %s", l.edges, sig.Name, show(got), show(l.r.vals[i]))
		}
	}
	if l.edges%memEvery == 0 {
		l.checkMems()
	}
}

func (l *lockstep) checkMems() {
	l.t.Helper()
	for i, m := range l.s.Netlist().Mems {
		for a, want := range l.r.mems[i] {
			if got, err := l.s.ReadMem(m.Name, uint64(a)); err != nil || got != want {
				l.t.Fatalf("edge %d: %s[%d] = %#x (%v), reference %#x", l.edges, m.Name, a, got, err, want)
			}
		}
	}
}

// drive runs cycles edges with reset asserted for the first two and
// every other non-clock input poked with a seeded random value before
// each edge.
func (l *lockstep) drive(cycles int, seed int64) {
	l.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top := l.s.Netlist().Top
	for e := 0; e < cycles; e++ {
		for _, in := range l.s.Netlist().Inputs {
			switch in.Name {
			case top + ".clock":
			case top + ".reset":
				reset := uint64(0)
				if e < 2 {
					reset = 1
				}
				l.poke(in.Name, reset)
			default:
				l.poke(in.Name, rng.Uint64())
			}
		}
		l.step()
	}
	l.checkMems()
}

func compileDesign(t *testing.T, c *ir.Circuit, debug bool) (*ir.Circuit, *sim.Simulator) {
	t.Helper()
	comp, err := passes.Compile(c, debug)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return comp.Circuit, sim.New(nl)
}

// refCycles is how long each design runs in lockstep (RISC-V programs
// stop earlier when they halt).
const refCycles = 3000

// TestSimMatchesReference steps the flat-program simulator and the tree
// reference side by side on every design the repository simulates:
// after every edge every signal must read the same bits, width and
// signedness, and every memory word must match every memEvery edges.
func TestSimMatchesReference(t *testing.T) {
	builds := []struct {
		name  string
		debug bool
	}{{"optimized", false}, {"debug", true}}
	for _, w := range riscv.Workloads() {
		for _, b := range builds {
			t.Run("riscv/"+w.Name+"/"+b.name, func(t *testing.T) {
				nCores := 1
				if w.MT {
					nCores = 2
				}
				m, err := riscv.NewMachine(nCores, b.debug)
				if err != nil {
					t.Fatal(err)
				}
				l := newLockstep(t, m.Comp.Circuit, m.Sim)
				for _, core := range m.Cores {
					for i, word := range w.Prog.Text {
						l.writeMem(core+".imem", uint64(i), uint64(word))
					}
					for i, word := range w.Prog.Data {
						l.writeMem(core+".dmem", uint64(i), uint64(word))
					}
				}
				l.poke("SoC.reset", 1)
				l.step()
				l.step()
				l.poke("SoC.reset", 0)
				halted, _ := m.Sim.Netlist().Signal("SoC.all_halted")
				for l.edges < refCycles {
					l.step()
					if v, _ := m.Sim.PeekIndex(halted.Index); v.IsTrue() {
						break
					}
				}
				l.checkMems()
			})
		}
	}
	for _, buggy := range []bool{true, false} {
		for _, b := range builds {
			t.Run(fmt.Sprintf("fpu/buggy=%v/%s", buggy, b.name), func(t *testing.T) {
				circ, err := fpu.BuildCircuit(buggy)
				if err != nil {
					t.Fatal(err)
				}
				low, s := compileDesign(t, circ, b.debug)
				newLockstep(t, low, s).drive(refCycles, 1)
			})
		}
	}
	for _, d := range []struct {
		name  string
		build func() *generator.Circuit
	}{
		{"counter", buildCounter},
		{"signed-down-counter", buildSignedDownCounter},
		{"fused-16x8", buildFused16x8},
	} {
		t.Run(d.name, func(t *testing.T) {
			low, s := compileDesign(t, d.build().MustBuild(), false)
			newLockstep(t, low, s).drive(refCycles, 1)
		})
	}
}

func buildCounter() *generator.Circuit {
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
	})
	out.Set(count)
	return c
}

// buildSignedDownCounter is the signed register design of
// core.TestSignedConditionsMatchReference.
func buildSignedDownCounter() *generator.Circuit {
	c := generator.NewCircuit("Down")
	m := c.NewModule("Down")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.SIntType(8))
	acc := m.RegInit("acc", ir.SIntType(8), m.LitS(0, 8))
	m.When(en, func() {
		acc.Set(acc.SubMod(m.LitS(1, 8)).AsSInt())
	})
	out.Set(acc)
	return c
}

// buildFused16x8 is BenchmarkFig5Fused's design: 16 instances of a leaf
// whose 8 nested conditional statements accumulate into one register.
func buildFused16x8() *generator.Circuit {
	const nInst, nStmts = 16, 8
	c := generator.NewCircuit("Top")
	child := c.NewModule("Leaf")
	d := child.Input("d", ir.UIntType(8))
	q := child.Output("q", ir.UIntType(8))
	acc := child.RegInit("acc", ir.UIntType(8), child.Lit(0, 8))
	var nest func(j int)
	nest = func(j int) {
		if j >= nStmts {
			return
		}
		child.When(d.Bit(j), func() {
			acc.Set(acc.AddMod(child.Lit(uint64(j+1), 8)))
			nest(j + 1)
		})
	}
	nest(0)
	q.Set(acc)
	top := c.NewModule("Top")
	x := top.Input("x", ir.UIntType(8))
	y := top.Output("y", ir.UIntType(8))
	sum := top.Wire("s", ir.UIntType(8))
	sum.Set(top.Lit(0, 8))
	for i := 0; i < nInst; i++ {
		u := top.Instance("u"+string(rune('a'+i)), child)
		u.IO("d").Set(x)
		sum.Set(sum.AddMod(u.IO("q")))
	}
	y.Set(sum)
	return c
}
