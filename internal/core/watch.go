package core

import (
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/val"
	"repro/internal/vpi"
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

	node expr.Node // the parsed expression, EvalBits' input
	// Fused pipeline state, mirroring insertedBP: the folded expression
	// (nil when only the general evaluator accepts it), its dependency
	// paths in prog.Deps order, and the dependencies' prefetch-cache
	// slots.
	prog   *expr.Program
	paths  []string
	pathOf map[string]string // name → sim path, for the general evaluator
	slots  []int

	// last is the previous value in the four-state plane; fused results
	// are lifted into it so the change compare is uniform across the
	// fused and general paths.
	last  val.Bits
	armed bool
	// fusedID is this watch's condition id in the whole-schedule fused
	// program, or -1 when the general evaluator computes it (unfusable
	// dependencies or literal). Set by rebuildFused under rt.mu; read on
	// the simulation goroutine.
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
// folded once here and its dependencies resolve through the same chain
// breakpoint conditions use (resolveSourceName), so watchpoints and
// breakpoints see identical names.
func (rt *Runtime) AddWatch(instance, source string) (int, error) {
	n, prog, err := expr.ParseCompile(source)
	if err != nil {
		return 0, err
	}
	// A nil program means the expression only runs on the general
	// four-state evaluator; its dependencies come from the AST instead.
	deps := expr.Names(n)
	if prog != nil {
		deps = prog.Deps
	}
	w := &Watchpoint{
		Instance: instance,
		Expr:     source,
		node:     n,
		prog:     prog,
		paths:    make([]string, len(deps)),
		pathOf:   make(map[string]string, len(deps)),
		fusedID:  -1,
	}
	for i, name := range deps {
		path, verified := rt.resolveSourceName(-1, instance, name)
		if !verified {
			// Unlike a deferred breakpoint condition, a watch must
			// resolve at add time: probe the absolute path now. A
			// four-state read error still proves the signal exists.
			if _, err := rt.backend.GetValue(path); err != nil && !errors.Is(err, vpi.ErrFourState) {
				return 0, fmt.Errorf("core: watch: cannot resolve %q in %s", name, instance)
			}
		}
		w.paths[i] = path
		w.pathOf[name] = path
	}
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

// eval computes the watched value with the general four-state
// evaluator: the path for every watch value the fused program does not
// deliver (unfusable, poisoned, or the exhaustive reference). Watches
// run on the simulation goroutine only.
func (w *Watchpoint) eval(rt *Runtime) (val.Bits, error) {
	return expr.EvalBits(w.node, expr.BitsResolverFunc(func(name string) (val.Bits, error) {
		if full, ok := w.pathOf[name]; ok {
			return vpi.ReadBits(rt.backend, full)
		}
		return val.Bits{}, fmt.Errorf("core: watch: unresolved %q", name)
	}))
}

// watchSlotsOK reports whether every dependency of the watch sits in a
// currently-readable prefetch slot — the eligibility condition for
// skipping it at clean edges.
func (rt *Runtime) watchSlotsOK(w *Watchpoint) bool {
	if len(w.slots) != len(w.paths) {
		return false // union rebuild pending; stay conservative
	}
	for _, s := range w.slots {
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
			b, err = w.eval(rt)
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
