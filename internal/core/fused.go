package core

import (
	"repro/internal/eval"
	"repro/internal/expr"
)

// This file wires whole-schedule fused condition compilation into the
// scheduler. Every dependency-union rebuild also rebuilds ONE fused
// word program (expr.Fuse) covering each armed breakpoint condition and
// watchpoint expression it can type; at each forward, non-stepping
// clock edge the scheduler runs that program once — the prelude, then
// every unparked condition's private range, in one pass on the
// simulation goroutine, over a plane whose first slots hold the
// batched union read — and the group walk merely consumes
// per-condition results. That pass is this repo's form of the paper's
// parallel evaluation of a group's members (§3.2): every member of
// every group is decided by the same run.
//
// The fused program is the only compiled form a condition has.
// Everything it does not cover runs through the general evaluator
// (evalBP / Watchpoint.eval over expr.EvalBits): conditions it does not
// fuse (an unverified or unresolved dependency, an operand or a result
// wider than 64 bits, ?: arms of different types whose value is read,
// a literal only EvalBits accepts), results a failed union read poisons, stepping,
// reverse walks (reverse steps and reverse-continue), and the
// SetExhaustiveEval reference the fused walk is pinned against.
//
// Activity skipping is one packed bitmap over fused condition ids
// (fusedState.skip). The group walk parks each sound miss it consumes;
// commitSlot's dirt un-parks every condition whose slot closure holds
// the changed slot (fusedUnpark).

// fusedState is the per-union-generation fused schedule: the compiled
// program, its membership maps, and its value plane. It is
// simulation-goroutine state.
type fusedState struct {
	// sched is nil when no armed condition fuses.
	sched *expr.FusedSchedule
	// n is the number of fused conditions.
	n int

	// conds maps fused condition id -> armed breakpoint, for ids below
	// watchBase; ids at and above watchBase are watchpoint values in
	// rt.watches order of the fused subset.
	conds     []*insertedBP
	watchBase int

	// groupConds / groupExtra partition each group's armed members into
	// fused condition ids and members the program does not cover
	// (evaluated by evalBP during consumption), indexed like
	// rt.allGroups; extras counts the latter across all groups.
	groupConds [][]int32
	groupExtra [][]*insertedBP
	extras     int

	// slotConds inverts each condition's slot closure onto the
	// dependency union: a changed slot un-parks, and a failed read
	// poisons, exactly the conditions listed for it.
	slotConds [][]int32

	// skip parks provable misses (breakpoint conditions only; watch
	// values always recompute): bit ci set means condition ci evaluated
	// sound-false and no slot in its closure has changed since. parked
	// counts the set bits so a fully idle edge skips execution
	// outright.
	skip   []uint64
	parked int

	// plane is the program's value plane. Its first slots are the
	// runtime's dependency-union cache (rt.prefetched), into which each
	// refresh commits the batched read.
	plane []uint64
	// poison marks the conditions a failed union read poisons this
	// run; it is current only when poisoned is set, which happens on an
	// edge where some read failed.
	poison   []uint64
	poisoned bool

	valid bool
	time  uint64
}

// idle reports an idle edge: every fused breakpoint condition is parked
// (so no watch rides the program — watch values never park) and no
// armed member sits outside the program. No armed group can hit, so
// the forward walk has nothing to visit.
func (fs *fusedState) idle() bool {
	return fs.parked == fs.n && fs.extras == 0
}

// skipped reports whether condition ci is parked.
func (fs *fusedState) skipped(ci int32) bool {
	return fs.skip[ci>>6]&(1<<(uint32(ci)&63)) != 0
}

// sound reports whether condition ci's result this run stands: no
// slot in its closure failed to read.
func (fs *fusedState) sound(ci int32) bool {
	return !fs.poisoned || fs.poison[ci>>6]&(1<<(uint32(ci)&63)) == 0
}

// truth is condition ci's result as a truth.
func (fs *fusedState) truth(ci int32) bool {
	return fs.plane[fs.sched.Prog.Conds[ci].Result] != 0
}

// value is condition ci's result as a typed value.
func (fs *fusedState) value(ci int32) eval.Value {
	c := &fs.sched.Prog.Conds[ci]
	v := c.Type
	v.Bits = fs.plane[c.Result]
	return v
}

// rebuildFused recompiles the fused schedule from the current armed
// set and points the union cache at the first slots of its plane. Runs
// under rt.mu from rebuildDeps, after slot assignment and resolution.
func (rt *Runtime) rebuildFused() {
	rt.fused = rt.buildFused()
	rt.prefetched = rt.fused.plane[:len(rt.depUnion)]
}

// buildFused hands every armed member with a folded program, and every
// watch with one, to the fuser. What the fuser does not fuse (an
// unverified or unresolved dependency, an operand or a result wider
// than 64 bits, ?: arms of different types whose value is read) and
// members only EvalBits accepts (a four-state or wide literal) are
// extras, evaluated by the general evaluator during the walk. A
// breakpoint's result is read as a truth, a watch's as a value.
func (rt *Runtime) buildFused() *fusedState {
	fs := &fusedState{
		groupConds: make([][]int32, len(rt.allGroups)),
		groupExtra: make([][]*insertedBP, len(rt.allGroups)),
	}
	type member struct {
		gi  int
		ibp *insertedBP
	}
	var members []member
	var fconds []expr.FusedCondition
	for gi, g := range rt.allGroups {
		for _, cand := range g.bps {
			armed, ok := rt.inserted[cand.bp.ID]
			if !ok {
				continue
			}
			if armed.generalOnly() {
				fs.groupExtra[gi] = append(fs.groupExtra[gi], armed)
				fs.extras++
				continue
			}
			members = append(members, member{gi, armed})
			fconds = append(fconds, expr.FusedCondition{
				Enable:      armed.enableProg,
				Cond:        armed.condProg,
				EnableSlots: armed.enableSlots,
				CondSlots:   armed.condSlots,
				Truth:       true,
			})
		}
	}
	// Watchpoint value expressions ride the same program as extra
	// conditions; checkWatches consumes their values instead of truth.
	var watches []*Watchpoint
	for _, w := range rt.watches {
		w.fusedID = -1
		if w.prog != nil {
			watches = append(watches, w)
			fconds = append(fconds, expr.FusedCondition{Cond: w.prog, CondSlots: w.slots})
		}
	}
	fs.plane = make([]uint64, len(rt.depUnion))
	if len(fconds) == 0 {
		return fs
	}
	sched := expr.Fuse(fconds, rt.depTypes)
	for k, m := range members {
		if ci := sched.IDs[k]; ci >= 0 {
			fs.groupConds[m.gi] = append(fs.groupConds[m.gi], ci)
			fs.conds = append(fs.conds, m.ibp)
		} else {
			fs.groupExtra[m.gi] = append(fs.groupExtra[m.gi], m.ibp)
			fs.extras++
		}
	}
	fs.watchBase = len(fs.conds)
	for k, w := range watches {
		w.fusedID = int(sched.IDs[len(members)+k])
	}
	fs.n = len(sched.Prog.Conds)
	if fs.n == 0 {
		return fs
	}
	fs.sched = sched
	fs.plane = append([]uint64(nil), sched.Prog.Init...)
	fs.skip = make([]uint64, (fs.n+63)/64)
	fs.poison = make([]uint64, len(fs.skip))
	fs.slotConds = make([][]int32, len(rt.depUnion))
	for ci, slots := range sched.Slots {
		for _, s := range slots {
			fs.slotConds[s] = append(fs.slotConds[s], int32(ci))
		}
	}
	return fs
}

// fusedReady returns the fused state with results current for time t,
// executing the fused program if this edge has not run it yet (or a
// stop handler invalidated the previous run). Callers must have run
// ensurePrefetch(t).
func (rt *Runtime) fusedReady(t uint64) *fusedState {
	fs := rt.fused
	if !fs.valid || fs.time != t {
		rt.runFused(fs, t)
	}
	return fs
}

// runFused executes the fused schedule once over the union the
// prefetch just read into the plane: the prelude, then every unparked
// condition's private range. On an edge where a read failed it first
// poisons the conditions reading a failed slot.
func (rt *Runtime) runFused(fs *fusedState, t uint64) {
	fs.valid, fs.time = true, t
	if fs.parked == fs.n {
		// Every breakpoint condition is a parked provable miss and no
		// watch rides the program (or nothing fused): nothing needs
		// executing.
		return
	}
	fs.poisoned = rt.readFailed
	if fs.poisoned {
		clear(fs.poison)
		for s, ok := range rt.prefetchOK {
			if !ok {
				for _, ci := range fs.slotConds[s] {
					fs.poison[ci>>6] |= 1 << (uint32(ci) & 63)
				}
			}
		}
	}
	skip := fs.skip
	if fs.parked == 0 {
		skip = nil
	}
	fs.sched.Prog.Exec(fs.plane, skip)
	if evaluated := fs.watchBase - fs.parked; evaluated > 0 {
		rt.mu.Lock()
		rt.evalCount += uint64(evaluated)
		rt.mu.Unlock()
	}
	rt.statFusedRuns.Add(1)
}

// fusedGroupEval consumes one group's fused results: parked conditions
// are provable misses, sound results decide directly (a sound miss
// parks), and poisoned results and members outside the program fall
// back to the general evaluator.
func (rt *Runtime) fusedGroupEval(fs *fusedState, gi int) []*insertedBP {
	var hits []*insertedBP
	evaluated := 0
	fallback := 0
	for _, ci := range fs.groupConds[gi] {
		if fs.skipped(ci) {
			continue
		}
		evaluated++
		switch {
		case !fs.sound(ci):
			fallback++
			if rt.evalBP(fs.conds[ci]) {
				hits = append(hits, fs.conds[ci])
			}
		case fs.truth(ci):
			// A hit condition stays hot: it re-evaluates at every edge
			// until a dependency moves or the user resumes past it.
			hits = append(hits, fs.conds[ci])
		default:
			// The miss provably holds until a slot in the condition's
			// closure moves (fusedUnpark).
			fs.skip[ci>>6] |= 1 << (uint32(ci) & 63)
			fs.parked++
		}
	}
	for _, ibp := range fs.groupExtra[gi] {
		evaluated++
		fallback++
		if rt.evalBP(ibp) {
			hits = append(hits, ibp)
		}
	}
	if fallback > 0 {
		rt.mu.Lock()
		rt.evalCount += uint64(fallback)
		rt.mu.Unlock()
	}
	if evaluated > 0 {
		rt.statEvaluated.Add(1)
	} else {
		rt.statSkipped.Add(1)
	}
	return hits
}

// fusedUnpark clears the skip bits of every fused condition whose
// closure includes union slot i; called from markSlotDirty.
func (fs *fusedState) fusedUnpark(i int) {
	if i >= len(fs.slotConds) {
		return
	}
	for _, ci := range fs.slotConds[i] {
		if fs.skipped(ci) {
			fs.skip[ci>>6] &^= 1 << (uint32(ci) & 63)
			fs.parked--
		}
	}
}
