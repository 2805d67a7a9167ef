package core

import (
	"repro/internal/eval"
	"repro/internal/expr"
)

// This file wires whole-schedule fused condition compilation into the
// scheduler. Every dependency-union rebuild also rebuilds ONE fused
// program (expr.Fuse) covering each armed breakpoint condition and
// watchpoint expression whose dependencies are verified and slotted;
// at each forward, non-stepping clock edge the scheduler executes that
// program once — shared CSE prelude, then every condition segment, in
// one pass on the simulation goroutine — and the group walk merely
// consumes per-condition results. That pass is this repo's form of the
// paper's parallel evaluation of a group's members (§3.2): every member
// of every group is decided by the same run.
//
// The fused program is the only compiled form a condition has.
// Everything it does not cover runs through the general evaluator
// (evalBP / Watchpoint.eval over expr.EvalBits): conditions it cannot
// fuse (an unverified dependency, a literal only EvalBits accepts),
// results that come back poisoned (a failed operand fetch, a poisoned
// shared segment), stepping, reverse walks (reverse steps and
// reverse-continue), and the SetExhaustiveEval reference the fused
// walk is pinned against.
//
// Activity skipping is one packed bitmap over fused condition ids
// (fusedState.skip). The group walk parks each sound miss it consumes;
// commitSlot's dirt un-parks every condition whose operand closure
// reads the changed slot (fusedUnpark).

// fusedState is the per-union-generation fused schedule: the compiled
// program, its membership maps, and the per-edge execution buffers.
// It is simulation-goroutine state.
type fusedState struct {
	// sched is nil when no armed condition fuses.
	sched *expr.FusedSchedule

	// conds maps fused condition id -> armed breakpoint, for ids below
	// watchBase; ids at and above watchBase are watchpoint values in
	// rt.watches order of the fusable subset.
	conds     []*insertedBP
	watchBase int

	// groupConds / groupExtra partition each group's armed members into
	// fused condition ids and unfusable members (evaluated by evalBP
	// during consumption), indexed like rt.allGroups; extras counts the
	// unfusable members across all groups.
	groupConds [][]int32
	groupExtra [][]*insertedBP
	extras     int

	// slotConds inverts each condition's operand closure onto the
	// dependency union: commitSlot un-parks every condition that could
	// observe the changed slot.
	slotConds [][]int32

	// skip parks provable misses (breakpoint conditions only; watch
	// values always recompute): bit ci set means condition ci evaluated
	// sound-false and no slot in its operand closure has changed since.
	// parked counts the set bits so a fully idle edge skips execution
	// outright.
	skip   []uint64
	parked int

	// Per-edge execution buffers and the one machine that runs the
	// program.
	opsVals []eval.Value
	opsOK   []bool
	results []eval.Value
	resOK   []bool
	machine eval.FusedMachine

	valid bool
	time  uint64
}

// idle reports an idle edge: every fused breakpoint condition is parked
// (so no watch rides the program — watch values never park) and no
// armed member sits outside the program. No armed group can hit, so
// the forward walk has nothing to visit.
func (fs *fusedState) idle() bool {
	return fs.parked == len(fs.resOK) && fs.extras == 0
}

// skipped reports whether condition ci is parked.
func (fs *fusedState) skipped(ci int32) bool {
	return fs.skip[ci>>6]&(1<<(uint32(ci)&63)) != 0
}

// slotsFused reports whether a program's dependencies are all verified
// and slotted in the prefetch union — the fusability condition.
func slotsFused(prog *expr.Program, slots []int) bool {
	if prog == nil {
		return true
	}
	if len(slots) != len(prog.Deps) {
		return false
	}
	for _, s := range slots {
		if s < 0 {
			return false
		}
	}
	return true
}

// rebuildFused recompiles the fused schedule from the current armed
// set. Runs under rt.mu from rebuildDeps, after slot assignment.
func (rt *Runtime) rebuildFused() { rt.fused = rt.buildFused(true) }

// buildFused partitions the armed set into fused conditions and
// EvalBits-only extras and compiles the fused program. With fuse false
// (or when the fuser rejects the schedule) every member is an extra,
// so the forward walk keeps its single path; correctness never depends
// on fusion.
func (rt *Runtime) buildFused(fuse bool) *fusedState {
	fs := &fusedState{
		groupConds: make([][]int32, len(rt.allGroups)),
		groupExtra: make([][]*insertedBP, len(rt.allGroups)),
	}
	var fconds []expr.FusedCondition
	for gi, g := range rt.allGroups {
		for _, cand := range g.bps {
			armed, ok := rt.inserted[cand.bp.ID]
			if !ok {
				continue
			}
			if fuse && !armed.generalOnly() &&
				slotsFused(armed.enableProg, armed.enableSlots) &&
				slotsFused(armed.condProg, armed.condSlots) {
				fs.groupConds[gi] = append(fs.groupConds[gi], int32(len(fconds)))
				fconds = append(fconds, expr.FusedCondition{
					Enable:      armed.enableProg,
					Cond:        armed.condProg,
					EnableSlots: armed.enableSlots,
					CondSlots:   armed.condSlots,
				})
				fs.conds = append(fs.conds, armed)
			} else {
				fs.groupExtra[gi] = append(fs.groupExtra[gi], armed)
				fs.extras++
			}
		}
	}
	fs.watchBase = len(fconds)
	// Watchpoint value expressions ride the same program as extra
	// conditions; checkWatches consumes their values instead of truth.
	for _, w := range rt.watches {
		w.fusedID = -1
		if !fuse || w.prog == nil || !slotsFused(w.prog, w.slots) {
			continue
		}
		w.fusedID = len(fconds)
		fconds = append(fconds, expr.FusedCondition{Cond: w.prog, CondSlots: w.slots})
	}
	if len(fconds) == 0 {
		return fs
	}
	sched, err := expr.Fuse(fconds)
	if err != nil {
		return rt.buildFused(false)
	}
	fs.sched = sched
	n := len(sched.Prog.Conds)
	fs.opsVals = make([]eval.Value, len(sched.Slots))
	fs.opsOK = make([]bool, len(sched.Slots))
	fs.results = make([]eval.Value, n)
	fs.resOK = make([]bool, n)
	fs.skip = make([]uint64, (n+63)/64)
	fs.slotConds = make([][]int32, len(rt.depUnion))
	for ci, clo := range sched.OpClosures {
		for _, op := range clo {
			s := sched.Slots[op]
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

// runFused executes the whole fused schedule once: gather operands from
// the prefetch cache, then run the shared prelude and every condition
// segment not parked.
func (rt *Runtime) runFused(fs *fusedState, t uint64) {
	fs.valid, fs.time = true, t
	if fs.parked == len(fs.resOK) {
		// Every breakpoint condition is a parked provable miss and no
		// watch rides the program (or nothing fused): nothing needs
		// executing.
		return
	}
	sched := fs.sched
	for k, s := range sched.Slots {
		fs.opsVals[k] = rt.prefetched[s]
		fs.opsOK[k] = rt.prefetchOK[s]
	}
	fs.machine.Exec(&sched.Prog, fs.opsVals, fs.opsOK, fs.skip, fs.results, fs.resOK)
	if evaluated := fs.watchBase - fs.parked; evaluated > 0 {
		rt.mu.Lock()
		rt.evalCount += uint64(evaluated)
		rt.mu.Unlock()
	}
	rt.statFusedRuns.Add(1)
}

// fusedGroupEval consumes one group's fused results: parked conditions
// are provable misses, sound results decide directly (a sound miss
// parks), and poisoned results and unfusable members fall back to the
// general evaluator.
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
		case !fs.resOK[ci]:
			fallback++
			if rt.evalBP(fs.conds[ci]) {
				hits = append(hits, fs.conds[ci])
			}
		case fs.results[ci].IsTrue():
			// A hit condition stays hot: it re-evaluates at every edge
			// until a dependency moves or the user resumes past it.
			hits = append(hits, fs.conds[ci])
		default:
			// The miss provably holds until a slot in the condition's
			// operand closure moves (fusedUnpark).
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
// operand closure includes union slot i; called from markSlotDirty.
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
