package core

import (
	"errors"
	"math/bits"

	"repro/internal/eval"
	"repro/internal/vpi"
)

// This file is the runtime half of the compiled condition pipeline. At
// insertion time every breakpoint/watch condition is parsed and folded
// once (expr.ParseCompile) and its signal dependencies are resolved to
// simulator paths; the union of every armed condition's dependencies
// is resolved to backend handles and their types once per rebuild (vpi
// Resolve). At each clock edge the scheduler makes one batched backend
// read of those handles (ReadValues), diffs the words into the cache
// for the cycle — the first slots of the fused program's value plane —
// and runs the whole schedule's fused program over that plane in one
// pass on the simulation goroutine (fused.go) — replacing the seed's
// tree-walk + one GetValue per signal per breakpoint + one goroutine
// spawned per group member per edge.

// resolveSourceName resolves a source-level identifier to a simulator
// path using the same chain for breakpoint conditions and watchpoints:
// breakpoint-scoped variable (when bpID >= 0) → generator/instance
// variable → instance-local RTL name → absolute path as written. The
// second return value reports whether the path was verified against the
// symbol table or backend; an unverified name is returned as-is for the
// caller to probe or defer to evaluation time.
func (rt *Runtime) resolveSourceName(bpID int64, instance, name string) (string, bool) {
	if bpID >= 0 {
		if rtlPath, err := rt.table.ResolveScopedVar(bpID, name); err == nil {
			return rt.remap.ToSim(rtlPath), true
		}
	}
	if rtlPath, err := rt.table.ResolveInstanceVar(instance, name); err == nil {
		return rt.remap.ToSim(rtlPath), true
	}
	local := rt.remap.ToSim(instance + "." + name)
	// A four-state read error proves the signal exists; its value just
	// routes through the general evaluator instead of the prefetch
	// cache.
	if _, err := rt.backend.GetValue(local); err == nil || errors.Is(err, vpi.ErrFourState) {
		return local, true
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

// rebuildDeps recomputes the union of every armed condition's simulator
// paths, assigns each program dependency its slot in the prefetched
// value slice, and recompiles the fused schedule against the fresh
// slots. Runs on the simulation goroutine.
func (rt *Runtime) rebuildDeps() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.depUnion = rt.depUnion[:0]
	slotOf := make(map[string]int)
	slot := func(path string) int {
		s, ok := slotOf[path]
		if !ok {
			s = len(rt.depUnion)
			slotOf[path] = s
			rt.depUnion = append(rt.depUnion, path)
		}
		return s
	}
	// verified == nil means every path was confirmed at arm time; an
	// unverified path gets slot -1: it stays out of the union, its
	// condition stays off the fused program, and the general evaluator
	// probes it per evaluation.
	assign := func(paths []string, verified []bool) []int {
		if len(paths) == 0 {
			return nil
		}
		slots := make([]int, len(paths))
		for i, p := range paths {
			if verified != nil && !verified[i] {
				slots[i] = -1
				continue
			}
			slots[i] = slot(p)
		}
		return slots
	}
	// Armed-member counts let a reverse-continue walk pass over groups
	// that can never hit; the armed list is all a forward, non-stepping
	// walk visits.
	rt.groupArmed = make([]int, len(rt.allGroups))
	for _, ibp := range rt.inserted {
		ibp.enableSlots = assign(ibp.enablePaths, ibp.enableVerified)
		ibp.condSlots = assign(ibp.condPaths, ibp.condVerified)
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
		w.slots = assign(w.paths, nil)
		w.canSkip = false
	}
	// Invert only after every slot is assigned — watch assignment above
	// still extends the union.
	rt.slotWatches = make([][]*Watchpoint, len(rt.depUnion))
	rt.watchedSlots = false
	for _, w := range rt.watches {
		for _, s := range w.slots {
			rt.slotWatches[s] = append(rt.slotWatches[s], w)
			rt.watchedSlots = true
		}
	}
	// Resolve the union once: the per-edge read goes by handle, with no
	// name lookup, and each slot's type is fixed for the fuser. A path
	// that does not resolve keeps NoHandle and no type: it reads as a
	// failed slot at every edge, and no fused condition reads it.
	rt.depHandles = make([]vpi.Handle, len(rt.depUnion))
	rt.depTypes = make([]eval.Value, len(rt.depUnion))
	for i, p := range rt.depUnion {
		if h, t, err := rt.backend.Resolve(p); err == nil {
			rt.depHandles[i], rt.depTypes[i] = h, t
		} else {
			rt.depHandles[i] = vpi.NoHandle
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
	// A slot that fails (x/z on a trace; a wide or unresolved slot,
	// which no fused condition reads) fails alone: fused conditions
	// reading it come back poisoned and fall to the general evaluator,
	// and every other breakpoint keeps its value.
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
