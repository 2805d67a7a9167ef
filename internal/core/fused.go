package core

import (
	"math/bits"

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
// (armedExpr.eval over expr.EvalBits): conditions it does not fuse (a
// dependency that did not resolve, a four-state or wide literal, an
// operand or a result wider than 64 bits, ?: arms of different types
// whose value is read, a signed operation on a 64-bit unsigned
// operand), results a failed union read poisons, stepping, reverse
// walks (reverse steps and reverse-continue), and the
// SetExhaustiveEval reference the fused walk is pinned against.
//
// Activity bookkeeping is word-parallel, over packed bitsets indexed by
// fused condition id. Fused ids keep input order, which is group
// order, so each group owns one contiguous id range. The refresh diffs
// the union read into a dirty-slot bitset and clears the parked set
// (skip) by the dirty slots' condition masks; a run gathers the
// breakpoint truths into a hit bitset; the group walk consumes a group
// as word operations over its range, parking its sound misses with one
// OR and visiting only its hits and poisoned members.

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

	// groupStart gives each group, indexed like rt.allGroups, its range
	// of fused ids: [groupStart[gi], groupStart[gi+1]). groupExtra holds
	// each group's armed members the program does not cover (evaluated
	// by evalBP during consumption); extras counts them across groups.
	groupStart []int32
	groupExtra [][]*insertedBP
	extras     int

	// slotMask is, per dependency-union slot, the mask of the fused
	// conditions whose slot closure holds the slot: a changed slot
	// un-parks, and a failed read poisons, exactly those.
	slotMask []condMask

	// skip parks provable misses (breakpoint conditions only; watch
	// values always recompute): bit ci set means condition ci evaluated
	// sound-false and no slot in its closure has changed since. parked
	// counts the set bits so a fully idle edge skips execution
	// outright.
	skip   []uint64
	parked int
	// hit holds, after each run, every breakpoint condition's truth,
	// gathered from results, the conditions' result slots copied out of
	// their 48-byte Segments so the gather streams through 4 bytes each.
	hit     []uint64
	results []int32

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

// condMask is a set of fused condition ids stored over the words its
// ids span: bit j of words[k] is condition (lo+k)*64 + j. A slot's
// conditions usually sit in a few neighbouring groups, so a mask costs
// what its conditions span, not the whole schedule.
type condMask struct {
	lo    int
	words []uint64
}

// clearFrom clears the mask's conditions in set.
func (m condMask) clearFrom(set []uint64) {
	for k, w := range m.words {
		set[m.lo+k] &^= w
	}
}

// addTo sets the mask's conditions in set.
func (m condMask) addTo(set []uint64) {
	for k, w := range m.words {
		set[m.lo+k] |= w
	}
}

// idle reports an idle edge: every fused breakpoint condition is parked
// (so no watch rides the program — watch values never park) and no
// armed member sits outside the program. No armed group can hit, so
// the forward walk has nothing to visit.
func (fs *fusedState) idle() bool {
	return fs.parked == fs.n && fs.extras == 0
}

// sound reports whether condition ci's result this run stands: no
// slot in its closure failed to read.
func (fs *fusedState) sound(ci int32) bool {
	return !fs.poisoned || fs.poison[ci>>6]&(1<<(uint32(ci)&63)) == 0
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

// buildFused hands every armed member and every watch to the fuser.
// What the fuser does not fuse (see expr.Fuse: a dependency that did
// not resolve, a four-state or wide literal, an operand or a result
// wider than 64 bits, ?: arms of different types whose value is read,
// a signed operation on a 64-bit unsigned operand) is an extra,
// evaluated by the general evaluator during the walk. A breakpoint's
// result is read as a truth, a watch's as a value.
func (rt *Runtime) buildFused() *fusedState {
	fs := &fusedState{
		groupStart: make([]int32, len(rt.allGroups)+1),
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
			members = append(members, member{gi, armed})
			fc := expr.FusedCondition{Truth: true}
			if e := armed.enable; e != nil {
				fc.Enable, fc.EnableSlots = e.prog, e.slots
			}
			if c := armed.cond; c != nil {
				fc.Cond, fc.CondSlots = c.prog, c.slots
			}
			fconds = append(fconds, fc)
		}
	}
	// Watchpoint value expressions ride the same program as extra
	// conditions; checkWatches consumes their values instead of truth.
	for _, w := range rt.watches {
		fconds = append(fconds, expr.FusedCondition{Cond: w.watched.prog, CondSlots: w.watched.slots})
	}
	fs.plane = make([]uint64, len(rt.depUnion))
	if len(fconds) == 0 {
		return fs
	}
	sched := expr.Fuse(fconds, rt.depTypes)
	// Members arrive in group order and fused ids keep it, so each
	// group's fused members take one contiguous id range.
	for k, m := range members {
		if ci := sched.IDs[k]; ci >= 0 {
			fs.groupStart[m.gi+1]++
			fs.conds = append(fs.conds, m.ibp)
		} else {
			fs.groupExtra[m.gi] = append(fs.groupExtra[m.gi], m.ibp)
			fs.extras++
		}
	}
	for gi := range rt.allGroups {
		fs.groupStart[gi+1] += fs.groupStart[gi]
	}
	fs.watchBase = len(fs.conds)
	for k, w := range rt.watches {
		w.fusedID = int(sched.IDs[len(members)+k])
	}
	fs.n = len(sched.Prog.Conds)
	if fs.n == 0 {
		return fs
	}
	fs.sched = sched
	fs.plane = append([]uint64(nil), sched.Prog.Init...)
	words := (fs.n + 63) / 64
	fs.skip = make([]uint64, words)
	fs.hit = make([]uint64, words)
	fs.poison = make([]uint64, words)
	fs.results = make([]int32, fs.watchBase)
	for ci := range fs.results {
		fs.results[ci] = sched.Prog.Conds[ci].Result
	}
	fs.slotMask = slotMasks(sched.Slots, len(rt.depUnion))
	return fs
}

// slotMasks inverts the conditions' slot closures (closures[ci] lists
// condition ci's slots) into one condition mask per slot.
func slotMasks(closures [][]int32, slots int) []condMask {
	first := make([]int, slots)
	last := make([]int, slots)
	for s := range first {
		first[s] = -1
	}
	for ci, closure := range closures {
		for _, s := range closure {
			if first[s] < 0 {
				first[s] = ci
			}
			last[s] = ci
		}
	}
	total := 0
	for s, ci := range first {
		if ci >= 0 {
			total += last[s]>>6 - ci>>6 + 1
		}
	}
	words := make([]uint64, total)
	masks := make([]condMask, slots)
	for s, ci := range first {
		if ci >= 0 {
			n := last[s]>>6 - ci>>6 + 1
			masks[s] = condMask{lo: ci >> 6, words: words[:n:n]}
			words = words[n:]
		}
	}
	for ci, closure := range closures {
		for _, s := range closure {
			m := masks[s]
			m.words[ci>>6-m.lo] |= 1 << (uint(ci) & 63)
		}
	}
	return masks
}

// unpark clears the parked bits of every condition reading a slot set
// in dirty, a bitset over union slots, and recounts what stays parked.
func (fs *fusedState) unpark(dirty []uint64) {
	for k, d := range dirty {
		for ; d != 0; d &= d - 1 {
			fs.slotMask[k<<6|bits.TrailingZeros64(d)].clearFrom(fs.skip)
		}
	}
	fs.parked = 0
	for _, w := range fs.skip {
		fs.parked += bits.OnesCount64(w)
	}
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
// poisons the conditions reading a failed slot; after the run it
// gathers the breakpoint truths into the hit bitset.
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
				fs.slotMask[s].addTo(fs.poison)
			}
		}
	}
	skip := fs.skip
	if fs.parked == 0 {
		skip = nil
	}
	fs.sched.Prog.Exec(fs.plane, skip)
	// Consumption reads the bits of live conditions only, so parked
	// ones, whose ranges did not run, need no masking here.
	for k := 0; k<<6 < len(fs.results); k++ {
		var h uint64
		for j, r := range fs.results[k<<6 : min(k<<6+64, len(fs.results))] {
			v := fs.plane[r]
			h |= (v | -v) >> 63 << uint(j)
		}
		fs.hit[k] = h
	}
	if evaluated := fs.watchBase - fs.parked; evaluated > 0 {
		rt.evalCount.Add(uint64(evaluated))
	}
	rt.statFusedRuns.Add(1)
}

// fusedGroupEval consumes one group's fused results, a word of its id
// range at a time: parked conditions are provable misses, sound misses
// park, sound hits hit, and poisoned results and members outside the
// program fall back to the general evaluator. Hits come back in id
// order, the extras last.
func (rt *Runtime) fusedGroupEval(fs *fusedState, gi int) []*insertedBP {
	var hits []*insertedBP
	evaluated := 0
	fallback := 0
	lo, hi := int(fs.groupStart[gi]), int(fs.groupStart[gi+1])
	for k := lo >> 6; k<<6 < hi; k++ {
		in := ^uint64(0)
		if k == lo>>6 {
			in <<= uint(lo) & 63
		}
		if hi < (k+1)<<6 {
			in &= 1<<(uint(hi)&63) - 1
		}
		live := in &^ fs.skip[k]
		if live == 0 {
			continue
		}
		evaluated += bits.OnesCount64(live)
		var bad uint64
		if fs.poisoned {
			bad = live & fs.poison[k]
		}
		// A sound miss provably holds until a slot in the condition's
		// closure moves (unpark). A hit condition stays hot: it
		// re-evaluates at every edge until a dependency moves or the
		// user resumes past it.
		miss := live &^ bad &^ fs.hit[k]
		fs.skip[k] |= miss
		fs.parked += bits.OnesCount64(miss)
		for v := live &^ miss; v != 0; v &= v - 1 {
			ibp := fs.conds[k<<6|bits.TrailingZeros64(v)]
			if bad&(v&-v) != 0 {
				fallback++
				if !rt.evalBP(ibp) {
					continue
				}
			}
			hits = append(hits, ibp)
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
		rt.evalCount.Add(uint64(fallback))
	}
	if evaluated > 0 {
		rt.statEvaluated.Add(1)
	} else {
		rt.statSkipped.Add(1)
	}
	return hits
}
