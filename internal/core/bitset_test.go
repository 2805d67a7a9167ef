package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/val"
	"repro/internal/vpi"
)

// This file pins the fused walk's word-parallel activity bookkeeping
// (fused.go) to a per-condition model of it. A design of modelInsts
// instances of modelStmts conditional statements gives every statement
// a group of modelInsts members, so the groups' fused id ranges
// straddle 64-bit word boundaries. The run re-arms statements between
// edges and from stop handlers, pokes inputs between edges and from
// stop handlers, and fails random union reads. After every edge it
// checks the stops against the SetExhaustiveEval reference, the parked
// set against the rule that defines it, and the evaluation and group
// counters against per-condition counting.

const (
	modelInsts = 11
	modelStmts = 14
	modelEdges = 400
	modelLine  = 1000 // the first conditional statement's line
)

// modelDesign builds the design: instance u<i> of Leaf reads input x<i>,
// and Leaf's statement j adds j+1 to its accumulator when bit j%8 of its
// input is set. Statement j sits alone on line modelLine+j.
func modelDesign(t *testing.T) (*sim.Simulator, *symtab.Table) {
	t.Helper()
	c := generator.NewCircuit("Top")
	leaf := c.NewModule("Leaf")
	d := leaf.Input("d", ir.UIntType(8))
	q := leaf.Output("q", ir.UIntType(8))
	acc := leaf.RegInit("acc", ir.UIntType(8), leaf.Lit(0, 8))
	for j := 0; j < modelStmts; j++ {
		leaf.When(d.Bit(j%8), func() { acc.Set(acc.AddMod(leaf.Lit(uint64(j+1), 8))) })
	}
	q.Set(acc)
	top := c.NewModule("Top")
	y := top.Output("y", ir.UIntType(8))
	sum := top.Wire("s", ir.UIntType(8))
	sum.Set(top.Lit(0, 8))
	for i := 0; i < modelInsts; i++ {
		u := top.Instance(fmt.Sprintf("u%d", i), leaf)
		u.IO("d").Set(top.Input(fmt.Sprintf("x%d", i), ir.UIntType(8)))
		sum.Set(sum.AddMod(u.IO("q")))
	}
	y.Set(sum)
	circ := c.MustBuild()
	// A loop gives its statements one source line; move each
	// conditional statement to a line of its own.
	j := 0
	for _, s := range circ.Module("Leaf").Body {
		if w, ok := s.(*ir.When); ok {
			w.Then[0].(*ir.Connect).Info = ir.Info{File: "model.go", Line: modelLine + j}
			j++
		}
	}
	comp, err := passes.Compile(circ, false)
	if err != nil {
		t.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(nl), table
}

// modelCond draws statement conditions; the last form is four-state, so
// its members stay off the fused program and run as extras.
func modelCond(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0:
		return fmt.Sprintf("acc == %d", r.Intn(256))
	case 1:
		return fmt.Sprintf("acc[3:0] == %d && d[7:4] != 0", r.Intn(16))
	case 2:
		return fmt.Sprintf("(acc ^ d) == %d", r.Intn(256))
	case 3:
		return fmt.Sprintf("d == %d", r.Intn(256))
	}
	return fmt.Sprintf("acc == %d && acc !== 8'bx", r.Intn(256))
}

// modelBackend fails random union reads with garbage bits when fail is
// set, then reports what the refresh read to onRead. It picks the
// signals to fail by handle, not by union slot, whose order follows map
// iteration.
type modelBackend struct {
	vpi.Interface
	fail   *rand.Rand
	onRead func(vals []uint64, ok []bool)
}

func (b *modelBackend) ReadValues(hs []vpi.Handle, dst []uint64, ok []bool) {
	b.Interface.ReadValues(hs, dst, ok)
	if b.fail != nil && len(hs) > 0 && b.fail.Intn(5) == 0 {
		sorted := slices.Sorted(slices.Values(hs))
		for n := 1 + b.fail.Intn(3); n > 0; n-- {
			h, garbage := sorted[b.fail.Intn(len(sorted))], b.fail.Uint64()
			for i := range hs {
				if hs[i] == h {
					dst[i], ok[i] = garbage, false
				}
			}
		}
	}
	if b.onRead != nil {
		b.onRead(dst, ok)
	}
}

// bitsetModel keeps the activity state per fused condition, the way the
// scheduler kept it before it went word-parallel: a condition parks
// when a consumed result is a sound miss, and un-parks when a refresh
// finds a slot of its closure changed (a different value, or a failed
// read now or at the previous refresh). It replays the walk from the
// events it sees — refreshes, stops, and the end of each edge — and
// counts evaluations and groups as the per-condition walk counted them.
type bitsetModel struct {
	t  *testing.T
	rt *Runtime

	// The union generation the model follows, and its shape as the
	// model derives it: each fused condition's closure and group, each
	// group's fused ids and unfused member count, the armed groups.
	fs       *fusedState
	closure  [][]int
	groupIDs map[int][]int
	extras   map[int]int
	armed    []int
	slotOf   map[string]int

	parked   []bool
	vals     []uint64 // the last refresh's words and read success
	ok       []bool
	pos      int // the walk's next group: 0 at an edge, past a stop
	pending  bool
	idleSeek bool

	evals, skipped, evaluated uint64
}

// reset follows a new union generation: nothing parked, no baseline.
func (m *bitsetModel) reset() {
	rt := m.rt
	m.fs = rt.fused
	m.parked = make([]bool, m.fs.watchBase)
	m.vals, m.ok = nil, nil
	m.slotOf = map[string]int{}
	for s, p := range rt.depUnion {
		m.slotOf[p] = s
	}
	m.closure = make([][]int, m.fs.watchBase)
	m.groupIDs = map[int][]int{}
	for ci, ibp := range m.fs.conds[:m.fs.watchBase] {
		for _, a := range []*armedExpr{ibp.enable, ibp.cond} {
			if a != nil {
				m.closure[ci] = append(m.closure[ci], a.slots...)
			}
		}
		gi := rt.groupIdx[ibp.key()]
		m.groupIDs[gi] = append(m.groupIDs[gi], ci)
	}
	rt.mu.Lock()
	m.extras = map[int]int{}
	for _, ibp := range rt.inserted {
		m.extras[rt.groupIdx[ibp.key()]]++
	}
	rt.mu.Unlock()
	m.armed = m.armed[:0]
	for gi := range rt.allGroups {
		if m.extras[gi] > 0 {
			m.armed = append(m.armed, gi)
			m.extras[gi] -= len(m.groupIDs[gi])
		}
	}
}

// refresh is one union read: it un-parks the conditions whose closure
// holds a changed slot and opens a walk segment.
func (m *bitsetModel) refresh(vals []uint64, ok []bool) {
	if m.rt.fused != m.fs {
		m.reset()
	}
	for ci, slots := range m.closure {
		for _, s := range slots {
			if m.vals == nil || !ok[s] || !m.ok[s] || vals[s] != m.vals[s] {
				m.parked[ci] = false
			}
		}
	}
	m.vals, m.ok = append(m.vals[:0], vals...), append(m.ok[:0], ok...)
	// The walk positions itself after the refresh: on an idle edge it
	// visits nothing.
	m.idleSeek = m.idle()
	m.pending = true
}

func (m *bitsetModel) idle() bool {
	for gi := range m.extras {
		if m.extras[gi] > 0 {
			return false
		}
	}
	for _, p := range m.parked {
		if !p {
			return false
		}
	}
	return true
}

// consume replays the walk segment since the last refresh over the
// armed groups from m.pos through last (inclusive).
func (m *bitsetModel) consume(last int) {
	if !m.pending {
		return
	}
	m.pending = false
	var visit []int
	for _, gi := range m.armed {
		if gi >= m.pos && gi <= last {
			visit = append(visit, gi)
		}
	}
	if m.idleSeek {
		m.skipped += uint64(len(visit))
		return
	}
	if len(visit) > 0 {
		// The first visited group runs the program, counting every
		// breakpoint condition not parked.
		for _, p := range m.parked {
			if !p {
				m.evals++
			}
		}
	}
	for _, gi := range visit {
		evaluated, fallback := m.extras[gi], m.extras[gi]
		for _, ci := range m.groupIDs[gi] {
			if m.parked[ci] {
				continue
			}
			evaluated++
			sound := true
			for _, s := range m.closure[ci] {
				sound = sound && m.ok[s]
			}
			switch {
			case !sound:
				fallback++
			case !m.truth(ci):
				m.parked[ci] = true
			}
		}
		m.evals += uint64(fallback)
		if evaluated > 0 {
			m.evaluated++
		} else {
			m.skipped++
		}
	}
}

// truth evaluates condition ci with EvalBits over the last refresh's
// words.
func (m *bitsetModel) truth(ci int) bool {
	ibp := m.fs.conds[ci]
	for _, a := range []*armedExpr{ibp.enable, ibp.cond} {
		if a == nil {
			continue
		}
		res := expr.BitsResolverFunc(func(name string) (val.Bits, error) {
			i, _ := slices.BinarySearch(a.prog.Deps, name)
			s := m.slotOf[a.paths[i]]
			ty := m.rt.depTypes[s]
			return eval.Make(m.vals[s], ty.Width, ty.Signed).ToBits(), nil
		})
		if b, err := expr.EvalBits(a.node, res); err != nil || b.Truth() != val.True {
			return false
		}
	}
	return true
}

// stop closes the segment at the stopped group.
func (m *bitsetModel) stop(ev *StopEvent) {
	m.rt.mu.Lock()
	ibp := m.rt.inserted[ev.Threads[0].BreakpointID]
	m.rt.mu.Unlock()
	gi := m.rt.groupIdx[ibp.key()]
	m.consume(gi)
	m.pos = gi + 1
}

// edgeEnd closes the edge's last segment and checks the runtime against
// the model.
func (m *bitsetModel) edgeEnd(edge int) {
	m.consume(len(m.rt.allGroups))
	m.pos = 0
	fs := m.rt.fused
	if fs != m.fs {
		m.t.Fatalf("edge %d: the union was rebuilt after the edge's last refresh", edge)
	}
	parked := 0
	for ci, p := range m.parked {
		if got := fs.skip[ci>>6]&(1<<(uint(ci)&63)) != 0; got != p {
			m.t.Fatalf("edge %d: condition %d (line %d) parked %v, want %v", edge, ci, fs.conds[ci].bp.Line, got, p)
		}
		if p {
			parked++
		}
	}
	if fs.parked != parked {
		m.t.Fatalf("edge %d: parked count %d, %d bits set", edge, fs.parked, parked)
	}
	evals, _ := m.rt.Stats()
	skipped, evaluated, _ := m.rt.ActivityStats()
	if evals != m.evals || skipped != m.skipped || evaluated != m.evaluated {
		m.t.Fatalf("edge %d: evals/skipped/evaluated %d/%d/%d, per-condition counting %d/%d/%d",
			edge, evals, skipped, evaluated, m.evals, m.skipped, m.evaluated)
	}
}

// modelRun is one runtime over the model design.
type modelRun struct {
	s     *sim.Simulator
	rt    *Runtime
	stops []stopSig
}

// TestFusedBitsetsMatchModel drives the default walk and the exhaustive
// reference in lockstep, edge by edge, through the same pokes and the
// same handler actions; the default runtime's union reads fail at
// random, and a bitsetModel follows it.
func TestFusedBitsetsMatchModel(t *testing.T) {
	var lines []int
	arm := func(rt *Runtime, line int, cond string) {
		rt.RemoveBreakpoint("model.go", line)
		if _, err := rt.AddBreakpoint("model.go", line, cond); err != nil {
			t.Fatal(err)
		}
	}
	// act is what a stop handler does at the k-th stop: poke an input,
	// re-arm a statement, both or neither.
	act := func(run *modelRun, k int) {
		r := rand.New(rand.NewSource(int64(k)))
		if r.Intn(2) == 0 {
			run.s.Poke(fmt.Sprintf("Top.x%d", r.Intn(modelInsts)), uint64(r.Intn(256)))
		}
		if r.Intn(6) == 0 {
			arm(run.rt, lines[r.Intn(len(lines))], modelCond(r))
		}
	}
	var model *bitsetModel
	newRun := func(reference bool) *modelRun {
		s, table := modelDesign(t)
		b := &modelBackend{Interface: vpi.NewSimBackend(s)}
		rt, err := New(b, table)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetExhaustiveEval(reference)
		run := &modelRun{s: s, rt: rt}
		if !reference {
			model = &bitsetModel{t: t, rt: rt}
			b.fail = rand.New(rand.NewSource(7))
			b.onRead = model.refresh
		}
		rt.SetHandler(func(ev *StopEvent) Command {
			run.stops = append(run.stops, signature(ev))
			if !reference {
				model.stop(ev)
			}
			act(run, len(run.stops))
			return CmdContinue
		})
		if lines == nil {
			for _, l := range table.Lines("model.go") {
				if l >= modelLine {
					lines = append(lines, l)
				}
			}
		}
		return run
	}
	runs := []*modelRun{newRun(false), newRun(true)}
	if len(lines) != modelStmts {
		t.Fatalf("conditional statements on lines %v, want %d lines", lines, modelStmts)
	}
	r := rand.New(rand.NewSource(20261020))
	for j, line := range lines {
		// Two four-state statements at most at first, so at least 132
		// members fuse.
		c := modelCond(r)
		for j >= 2 && strings.HasSuffix(c, "8'bx") {
			c = modelCond(r)
		}
		for _, run := range runs {
			arm(run.rt, line, c)
		}
	}
	main, ref := runs[0], runs[1]
	// Registered after the runtime's, this callback runs once the edge's
	// walk is done.
	edge := 0
	main.s.OnClockEdge(func(uint64) { model.edgeEnd(edge) })
	straddled, fusedMax, parked := false, 0, 0
	for edge = 0; edge < modelEdges; edge++ {
		// Between edges: re-arm now and then, and poke a third of the
		// inputs, half of those pokes to 0 so instances go idle.
		if edge%37 == 36 {
			line, c := lines[r.Intn(len(lines))], modelCond(r)
			for _, run := range runs {
				arm(run.rt, line, c)
			}
		}
		for i := 0; i < modelInsts; i++ {
			if r.Intn(3) == 0 {
				v := uint64(0)
				if r.Intn(2) == 0 {
					v = uint64(r.Intn(256))
				}
				for _, run := range runs {
					run.s.Poke(fmt.Sprintf("Top.x%d", i), v)
				}
			}
		}
		for _, run := range runs {
			run.s.Step()
		}
		sameStops(t, main.stops, ref.stops)
		fs := main.rt.fused
		fusedMax = max(fusedMax, fs.watchBase)
		parked += fs.parked
		for gi := range main.rt.allGroups {
			if lo, hi := fs.groupStart[gi], fs.groupStart[gi+1]; lo < hi && lo>>6 != (hi-1)>>6 {
				straddled = true
			}
		}
	}
	t.Logf("%d stops; %d groups skipped, %d evaluated; %d evaluations; up to %d fused conditions, %.1f parked per edge",
		len(main.stops), model.skipped, model.evaluated, model.evals, fusedMax, float64(parked)/modelEdges)
	if len(main.stops) < 20 || model.skipped == 0 || model.evaluated == 0 || parked == 0 {
		t.Fatalf("%d stops, %d groups skipped, %d evaluated: the run is vacuous", len(main.stops), model.skipped, model.evaluated)
	}
	if fusedMax < 130 || !straddled {
		t.Fatalf("at most %d fused conditions, a group range straddling a word: %v", fusedMax, straddled)
	}
}
