package core

import (
	"fmt"

	"repro/internal/val"
)

// Watchpoint is a data breakpoint: the simulation stops when the
// watched expression's value changes between clock edges. This extends
// the paper's breakpoint emulation with the other classic source-level
// debugging primitive; it rides the same clock-edge callback and the
// same stable-state guarantee.
type Watchpoint struct {
	ID int
	// Instance scopes name resolution (symtab-relative path).
	Instance string
	// Expr is the watched expression source.
	Expr string

	watched *armedExpr // Expr, armed

	// last is the previous value in the four-state plane; fused results
	// are lifted into it so the change compare is uniform across the
	// fused and general paths.
	last  val.Bits
	armed bool
	// fusedID is this watch's condition id in the whole-schedule fused
	// program, or -1 when the general evaluator computes it (the fuser
	// did not fuse it). Set by rebuildFused under rt.mu; read on the
	// simulation goroutine.
	fusedID int
	// canSkip marks the watch evaluation as provably redundant: the
	// last evaluation succeeded with every dependency slot readable,
	// and no dependency has changed at a cache refresh since — so the
	// watched value cannot have moved and re-evaluating it cannot hit.
	// Maintained by ensurePrefetch/checkWatches on the simulation
	// goroutine, reset on every dependency-union rebuild.
	canSkip bool
}

// AddWatch registers a watchpoint on an expression evaluated in an
// instance context; it stops on any value change. The expression is
// folded once here and its names resolve through the chain breakpoint
// conditions use (resolveSourceName), so watchpoints and breakpoints
// see identical names; unlike a breakpoint condition, a watch fails
// when a name resolves nowhere.
func (rt *Runtime) AddWatch(instance, source string) (int, error) {
	watched, err := newArmedExpr(source, func(name string) (string, error) {
		if path, ok := rt.resolveSourceName(-1, instance, name); ok {
			return path, nil
		}
		return "", fmt.Errorf("core: watch: cannot resolve %q in %s", name, instance)
	})
	if err != nil {
		return 0, err
	}
	w := &Watchpoint{Instance: instance, Expr: source, watched: watched, fusedID: -1}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextWatch++
	w.ID = rt.nextWatch
	rt.watches = append(rt.watches, w)
	rt.markDepsDirty()
	return w.ID, nil
}

// RemoveWatch deletes a watchpoint by id.
func (rt *Runtime) RemoveWatch(id int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, w := range rt.watches {
		if w.ID == id {
			rt.watches = append(rt.watches[:i], rt.watches[i+1:]...)
			rt.markDepsDirty()
			return true
		}
	}
	return false
}

// Watches lists active watchpoints.
func (rt *Runtime) Watches() []*Watchpoint {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Watchpoint, len(rt.watches))
	copy(out, rt.watches)
	return out
}

// watchSlotsOK reports whether every dependency of the watch sits in a
// currently-readable prefetch slot — the eligibility condition for
// skipping it at clean edges.
func (rt *Runtime) watchSlotsOK(w *Watchpoint) bool {
	if len(w.watched.slots) != len(w.watched.paths) {
		return false // union rebuild pending; stay conservative
	}
	for _, s := range w.watched.slots {
		if s < 0 || s >= len(rt.prefetchOK) || !rt.prefetchOK[s] {
			return false
		}
	}
	return true
}

// checkWatches runs at each clock edge before the breakpoint schedule;
// it returns a stop event when any watched value changed.
func (rt *Runtime) checkWatches(time uint64) *StopEvent {
	// Outside the exhaustive reference, watch expressions were computed
	// by the same whole-schedule program run (rebuildFused appends them
	// after the breakpoint conditions); consume those values instead of
	// re-evaluating each watch. A poisoned or unfused watch falls back to
	// the general evaluator.
	fast := !rt.exhaustive.Load()
	var fs *fusedState
	if fast {
		// Prefetch before snapshotting: the watch pass is an edge's
		// first consumer of the cache, so any pending union rebuild runs
		// here, and a concurrent RemoveWatch can never leave a
		// snapshotted watch with slots indexing rebuilt arrays.
		rt.ensurePrefetch(time)
		fs = rt.fusedReady(time)
	}
	rt.mu.Lock()
	watches := rt.watches
	rt.mu.Unlock()
	var ev *StopEvent
	for _, w := range watches {
		if fast && w.canSkip {
			// Every dependency is clean since the last successful
			// evaluation: the watched value is unchanged, so this edge
			// cannot produce a hit.
			continue
		}
		var b val.Bits
		var err error
		if fast && w.fusedID >= 0 && fs.sound(int32(w.fusedID)) {
			b = fs.value(int32(w.fusedID)).ToBits()
		} else {
			b, err = w.watched.eval(rt)
		}
		if err != nil {
			w.canSkip = false
			continue
		}
		if fast {
			w.canSkip = rt.watchSlotsOK(w)
		}
		if !w.armed {
			w.armed = true
			w.last = b
			continue
		}
		if !b.CaseEq(w.last) || b.Width != w.last.Width {
			if ev == nil {
				ev = &StopEvent{Time: time, File: "<watch>", Watch: []WatchHit{}}
			}
			hit := WatchHit{
				ID:       w.ID,
				Instance: w.Instance,
				Expr:     w.Expr,
				Old:      w.last.V0,
				New:      b.V0,
			}
			// Values the uint64 fields cannot carry faithfully (x/z
			// bits, >64-bit magnitudes) travel as rendered literals.
			if w.last.HasX() || b.HasX() || w.last.IsWide() || b.IsWide() {
				hit.OldDisplay = w.last.String()
				hit.NewDisplay = b.String()
			}
			ev.Watch = append(ev.Watch, hit)
			w.last = b
		}
	}
	return ev
}

// WatchHit reports one triggered watchpoint.
type WatchHit struct {
	ID       int    `json:"id"`
	Instance string `json:"instance"`
	Expr     string `json:"expr"`
	Old      uint64 `json:"old"`
	New      uint64 `json:"new"`
	// OldDisplay/NewDisplay carry Verilog-literal renderings when the
	// values have x/z bits or exceed 64 bits; empty for plain two-state
	// values, keeping their frames byte-identical to the old encoding.
	OldDisplay string `json:"old_display,omitempty"`
	NewDisplay string `json:"new_display,omitempty"`
}
