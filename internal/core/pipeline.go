package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/expr"
	"repro/internal/val"
	"repro/internal/vpi"
)

// This file is the runtime half of the compiled condition pipeline. At
// insertion time every armed expression (a breakpoint's enable and user
// conditions, a watched value) is parsed and folded once
// (expr.ParseCompile) and each name it reads is resolved to a
// simulator path. Each union rebuild resolves every distinct path to a
// backend handle and type once (vpi Resolve), the first time an armed
// expression reads it. At each clock edge the scheduler makes one
// batched backend read of those handles (ReadValues), diffs the words
// into the cache for the cycle — the first slots of the fused program's
// value plane — and runs the whole schedule's fused program over that
// plane in one pass on the simulation goroutine (fused.go) — replacing
// the seed's tree-walk + one GetValue per signal per breakpoint + one
// goroutine spawned per group member per edge.

// armedExpr is one armed expression: a breakpoint's enable condition,
// its user condition, or a watched value. It holds the parsed tree
// EvalBits walks, the folded program the fuser lowers, and for each of
// the program's names (prog.Deps order) the simulator path it resolved
// to at arm time and its dependency-union slot, which rebuildDeps
// assigns: -1 when the path does not resolve.
type armedExpr struct {
	node  expr.Node
	prog  *expr.Program
	paths []string
	slots []int
}

// newArmedExpr parses and folds src and resolves each of its program's
// names through path. ParseCompile shares one immutable tree and
// program across the N instances of a generated statement, and across
// re-arms, instead of re-parsing the identical source N times.
func newArmedExpr(src string, path func(name string) (string, error)) (*armedExpr, error) {
	n, p, err := expr.ParseCompile(src)
	if err != nil {
		return nil, err
	}
	a := &armedExpr{node: n, prog: p, paths: make([]string, len(p.Deps))}
	for i, name := range p.Deps {
		if a.paths[i], err = path(name); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// eval computes the expression with the general four-state evaluator,
// reading each name straight from the backend through its arm-time
// path. EvalBits reads only names the folded program kept (folding
// drops a name only from a side EvalBits never evaluates), so any
// other name is an error.
func (a *armedExpr) eval(rt *Runtime) (val.Bits, error) {
	return expr.EvalBits(a.node, expr.BitsResolverFunc(func(name string) (val.Bits, error) {
		i, ok := slices.BinarySearch(a.prog.Deps, name)
		if !ok {
			return val.Bits{}, fmt.Errorf("core: %q is not a dependency of %s", name, a.node)
		}
		return vpi.ReadBits(rt.backend, a.paths[i])
	}))
}

// truth reports whether the expression is definitely true (x is not
// true, matching Verilog's `if`). An absent expression (nil) holds.
func (a *armedExpr) truth(rt *Runtime) bool {
	if a == nil {
		return true
	}
	b, err := a.eval(rt)
	return err == nil && b.Truth() == val.True
}

// resolveSourceName resolves a source-level identifier to a simulator
// path through the one chain breakpoint conditions, watchpoints and
// evaluate requests share: breakpoint-scoped variable (when bpID >= 0)
// → generator/instance variable → instance-local RTL name → absolute
// path as written. The last two are asked of the backend's handles
// (vpi Resolve), which read no value. ok is false when no link
// resolves; the name then comes back as written.
func (rt *Runtime) resolveSourceName(bpID int64, instance, name string) (path string, ok bool) {
	if bpID >= 0 {
		if rtlPath, err := rt.table.ResolveScopedVar(bpID, name); err == nil {
			return rt.remap.ToSim(rtlPath), true
		}
	}
	if rtlPath, err := rt.table.ResolveInstanceVar(instance, name); err == nil {
		return rt.remap.ToSim(rtlPath), true
	}
	for _, p := range [2]string{rt.remap.ToSim(instance + "." + name), name} {
		if _, _, err := rt.backend.Resolve(p); err == nil {
			return p, true
		}
	}
	return name, false
}

// markDepsDirty schedules a dependency-union rebuild before the next
// prefetch. The armed set changed, so a parked Drive loop wakes.
// Callers must hold rt.mu.
func (rt *Runtime) markDepsDirty() {
	rt.depsDirty = true
	rt.wakeLocked()
}

// syncDeps runs a dependency-union rebuild scheduled since the last
// one (breakpoints or watches changed), so the armed-member counts are
// current. Runs on the simulation goroutine: whenever the cycle cache
// is refreshed, when a reverse-continue walk starts, and at each cycle
// it rewinds.
func (rt *Runtime) syncDeps() {
	rt.mu.Lock()
	dirty := rt.depsDirty
	rt.depsDirty = false
	rt.mu.Unlock()
	if dirty {
		rt.rebuildDeps()
	}
}

// rebuildDeps recomputes the union of every armed expression's
// simulator paths, assigns each program dependency its slot in the
// prefetched value slice, and recompiles the fused schedule against the
// fresh slots. Runs on the simulation goroutine.
func (rt *Runtime) rebuildDeps() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Each distinct path resolves once, the first time an armed
	// expression reads it: the per-edge read goes by handle, with no name
	// lookup, and each slot's type is fixed for the fuser. A path that
	// does not resolve gets slot -1 and stays out of the union: no fused
	// condition reads it, and EvalBits' reads of it fail.
	rt.depUnion, rt.depHandles, rt.depTypes = rt.depUnion[:0], nil, nil
	slotOf := make(map[string]int)
	assign := func(a *armedExpr) {
		if a == nil {
			return
		}
		a.slots = make([]int, len(a.paths))
		for i, p := range a.paths {
			s, seen := slotOf[p]
			if !seen {
				s = -1
				if h, t, err := rt.backend.Resolve(p); err == nil {
					s = len(rt.depUnion)
					rt.depUnion = append(rt.depUnion, p)
					rt.depHandles = append(rt.depHandles, h)
					rt.depTypes = append(rt.depTypes, t)
				}
				slotOf[p] = s
			}
			a.slots[i] = s
		}
	}
	// Armed-member counts let a reverse-continue walk pass over groups
	// that can never hit; the armed list is all a forward, non-stepping
	// walk visits.
	rt.groupArmed = make([]int, len(rt.allGroups))
	for _, ibp := range rt.inserted {
		assign(ibp.enable)
		assign(ibp.cond)
		if gi, ok := rt.groupIdx[ibp.key()]; ok {
			rt.groupArmed[gi]++
		}
	}
	rt.armed = rt.armed[:0]
	for gi, n := range rt.groupArmed {
		if n > 0 {
			rt.armed = append(rt.armed, gi)
		}
	}
	for _, w := range rt.watches {
		assign(w.watched)
		w.canSkip = false
	}
	// Invert only after every slot is assigned — watch assignment above
	// still extends the union.
	rt.slotWatches = make([][]*Watchpoint, len(rt.depUnion))
	rt.watchedSlots = false
	for _, w := range rt.watches {
		for _, s := range w.watched.slots {
			if s >= 0 {
				rt.slotWatches[s] = append(rt.slotWatches[s], w)
				rt.watchedSlots = true
			}
		}
	}
	// No slot has a baseline yet: the first refresh finds every slot
	// dirty.
	rt.prefetchOK = make([]bool, len(rt.depUnion))
	rt.dirtySlots = make([]uint64, (len(rt.depUnion)+63)/64)
	rt.prefetchValid = false
	if cap(rt.incoming) < len(rt.depUnion) {
		rt.incoming = make([]uint64, len(rt.depUnion))
		rt.incomingOK = make([]bool, len(rt.depUnion))
	}
	// Advise capable backends of the per-cycle read set: a replay block
	// store materializes exactly these signals' timelines, so the
	// batched read below never decodes trace blocks or moves replay
	// state mid-schedule.
	if p, ok := rt.backend.(vpi.Prefetcher); ok && len(rt.depUnion) > 0 {
		p.Prefetch(rt.depUnion)
	}
	// Recompile the whole-schedule fused program against the fresh slot
	// assignment (fused.go), whose plane now holds the union cache; its
	// skip bitmap resets with the union, so the first edge after any
	// breakpoint change evaluates everything.
	rt.rebuildFused()
}

// ensurePrefetch makes the per-cycle value cache current for time t:
// a batched backend read of the dependency union, instead of one
// GetValue per signal per breakpoint per edge. Values are cached per
// (cycle, signal); re-entry at the same time (the walk after the watch
// pass) hits the cache and returns at once. Every refreshed slot
// is diffed against its previous value, and actual changes un-park the
// fused conditions and watches depending on it. Runs on the simulation
// goroutine.
//
// A pending union rebuild runs only when the cache is stale: at the
// first consumer of an edge, after a stop dropped the cache, and after
// a rewind. A breakpoint or watch armed or removed from another
// goroutine mid-walk therefore takes effect at the next edge or stop,
// not at the next statement group of the walk in progress; the forward
// walk positions itself in the armed list only after this call.
func (rt *Runtime) ensurePrefetch(t uint64) {
	if rt.prefetchValid && rt.prefetchTime == t {
		return
	}
	rt.syncDeps()
	rt.prefetchTime = t
	rt.prefetchValid = true
	if len(rt.depUnion) > 0 {
		rt.refreshAll()
	}
}

// refreshAll re-reads the whole dependency union through its handles
// and diffs it against the previous snapshot in one pass, into a
// bitset of dirty slots: a slot whose value actually differs from the
// cached one, or whose read failed now or last time (a failed read, or
// a fresh union, leaves no baseline). Only
// what depends on a dirty slot un-parks: the fused conditions in its
// mask and the watches reading it. A slot's type is fixed by its
// handle, so the bits are the whole value.
func (rt *Runtime) refreshAll() {
	// The cache holds an earlier value snapshot of this union
	// generation (only a dependency rebuild discards it), so value
	// diffs against it are meaningful. A mid-edge invalidation (stop
	// handler returned, SetTime rewound) clears only prefetchValid —
	// the snapshot is still the set of values every parked condition
	// was last evaluated against, exactly the baseline the diff must
	// use: handler pokes and rewinds surface as value differences and
	// un-park precisely the affected conditions.
	n := len(rt.depUnion)
	in, ok := rt.incoming[:n], rt.incomingOK[:n]
	// A slot that fails (x/z on a trace; a wide slot, which no fused
	// condition reads) fails alone: fused conditions reading it come
	// back poisoned and fall to the general evaluator, and every other
	// breakpoint keeps its value.
	rt.backend.ReadValues(rt.depHandles, in, ok)
	prev, prevOK := rt.prefetched[:n], rt.prefetchOK[:n]
	var failed, dirty uint64
	for k := range rt.dirtySlots {
		lo, hi := k<<6, min(k<<6+64, n)
		inK, okK, prevK, prevOKK := in[lo:hi], ok[lo:hi], prev[lo:hi], prevOK[lo:hi]
		var d uint64
		for j, v := range inK {
			moved := v ^ prevK[j]
			failed |= b2u(!okK[j])
			d |= ((moved|-moved)>>63 | b2u(!okK[j]) | b2u(!prevOKK[j])) << uint(j)
		}
		rt.dirtySlots[k] = d
		dirty |= d
	}
	copy(prev, in)
	copy(prevOK, ok)
	rt.readFailed = failed != 0
	if dirty == 0 {
		return
	}
	if rt.fused.parked > 0 {
		rt.fused.unpark(rt.dirtySlots)
	}
	if rt.watchedSlots {
		for k, d := range rt.dirtySlots {
			for ; d != 0; d &= d - 1 {
				for _, w := range rt.slotWatches[k<<6|bits.TrailingZeros64(d)] {
					w.canSkip = false
				}
			}
		}
	}
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// invalidatePrefetch drops the cycle cache; called after the stop
// handler returns, since the user may have deposited values or changed
// the breakpoint set while the simulation was paused. The fused results
// derive from the cache, so they fall with it: the next consumer
// re-runs the fused program over the refetched slots (handler deposits
// surface as slot diffs there, un-parking exactly the affected
// conditions).
func (rt *Runtime) invalidatePrefetch() {
	rt.prefetchValid = false
	rt.fused.valid = false
}
