// Package core implements the hgdb debugger runtime — the paper's
// breakpoint emulation layer (§3.2, Figure 2): breakpoint insertion
// against the symbol table, the Figure 2 scheduling loop executed
// inside the simulator's clock-edge callback, evaluation of every
// breakpoint group's members in one fused pass, source-level stack frame
// reconstruction with structured variables (§3.4), concurrent
// instances presented as threads (Figure 4), watchpoints, and
// intra-cycle plus (on replay backends) full reverse debugging (§3.2).
//
// A condition has two evaluators. The whole armed set compiles into one
// fused word program (expr.Fuse → eval.MultiProg, on the simulator's own
// instruction set) that runs once per forward clock edge over one
// batched read of the armed dependency union; everything else —
// stepping, reverse walks, conditions the fuser cannot take, poisoned
// fused results, and the SetExhaustiveEval reference — runs through the
// general four-state evaluator (expr.EvalBits). On backends implementing vpi.Prefetcher (the replay
// block store) the union is advised ahead of time so per-cycle reads
// stay off cold trace state. See DESIGN.md.
//
// A host that owns the simulation loop (the debug hub, hgdb-replay)
// runs it through Drive: edges run back to back while one of them can
// stop, the loop parks while none can, and a trace holds at its end
// with a stop instead of wrapping to time 0.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/symtab"
	"repro/internal/val"
	"repro/internal/vpi"
)

// Command tells the runtime how to proceed after a stop.
type Command int

const (
	// CmdContinue resumes until the next inserted breakpoint hits.
	CmdContinue Command = iota
	// CmdStep stops at the next source statement whose enable condition
	// holds, whether or not a breakpoint is inserted there (step-over).
	CmdStep
	// CmdReverseStep steps to the previous enabled source statement,
	// reversing the intra-cycle schedule; at the cycle boundary the
	// backend's SetTime is used when available (§3.2).
	CmdReverseStep
	// CmdDetach removes the runtime from the simulation; the design
	// runs freely afterwards.
	CmdDetach
	// CmdReverseContinue runs backwards until an inserted breakpoint
	// hits, walking the schedule in reverse and rewinding across cycle
	// boundaries with SetTime. Cycle 0 is walked as a reverse step, so
	// with no earlier hit the walk stops at the first enabled statement
	// it reaches there (a step stop: the trace's entry).
	CmdReverseContinue
)

func (c Command) String() string {
	switch c {
	case CmdContinue:
		return "continue"
	case CmdStep:
		return "step"
	case CmdReverseStep:
		return "reverse-step"
	case CmdDetach:
		return "detach"
	case CmdReverseContinue:
		return "reverse-continue"
	}
	return fmt.Sprintf("Command(%d)", int(c))
}

// Variable is one reconstructed variable value in a frame.
type Variable struct {
	// Name is the source-level (dotted) name, e.g. "io.out.bits".
	Name string `json:"name"`
	// Value is the current bits.
	Value uint64 `json:"value"`
	// Width is the signal width.
	Width int `json:"width"`
	// RTL is the full simulator path the value was fetched from.
	RTL string `json:"rtl"`
	// Unknown marks a variable whose backend read failed (a replay gap,
	// an optimized-away net). The variable is still emitted — frames
	// keep a deterministic shape — with Value/Width zero and this flag
	// set, and the marker travels the wire unchanged (core.StopEvent is
	// the protocol's stop payload).
	Unknown bool `json:"unknown,omitempty"`
	// X marks the unknown (x/z) bits of the low value word, VPI
	// aval/bval style: an X bit set means that position is not a known
	// 0/1, and the corresponding Value bit then distinguishes x (0)
	// from z (1). Two-state values leave it zero, so their wire frames
	// are byte-identical to the pre-four-state encoding.
	X uint64 `json:"x,omitempty"`
	// Hi/XHi extend the value and x planes beyond 64 bits (words 1..,
	// little-endian). Empty for values that fit one word.
	Hi  []uint64 `json:"hi,omitempty"`
	XHi []uint64 `json:"xhi,omitempty"`
}

// SetBits stores a four-state value into the variable's wire fields.
// The encoding is normalized — an all-zero x plane is dropped — so
// equal values always serialize identically regardless of how their
// val.Bits were built.
func (v *Variable) SetBits(b val.Bits) {
	v.Value = b.V0
	v.X = b.X0
	v.Width = b.Width
	v.Hi, v.XHi = nil, nil
	if b.IsWide() {
		v.Hi = append([]uint64(nil), b.VH...)
		for _, w := range b.XH {
			if w != 0 {
				v.XHi = append([]uint64(nil), b.XH...)
				break
			}
		}
	}
}

// BitsValue reconstructs the four-state value from the wire fields.
// Fields that arrived over the wire are normalized (masked to Width)
// rather than trusted.
func (v *Variable) BitsValue() val.Bits {
	if len(v.Hi) == 0 && len(v.XHi) == 0 {
		return val.FromPlanes([]uint64{v.Value}, []uint64{v.X}, v.Width)
	}
	vw := append([]uint64{v.Value}, v.Hi...)
	xw := append([]uint64{v.X}, v.XHi...)
	return val.FromPlanes(vw, xw, v.Width)
}

// HasX reports whether any bit of the value is x or z.
func (v *Variable) HasX() bool {
	if v.X != 0 {
		return true
	}
	for _, w := range v.XHi {
		if w != 0 {
			return true
		}
	}
	return false
}

// Display renders the variable for a human: decimal for known ≤64-bit
// values (what the debugger always showed), Verilog-style sized
// literals ("8'b1x0z", "128'hdead...") for four-state or wide ones,
// and "<unknown>" for failed reads.
func (v *Variable) Display() string {
	if v.Unknown {
		return "<unknown>"
	}
	return v.BitsValue().String()
}

// EqualValue reports whether two variables carry bit-identical value
// planes (shape — name, RTL path, width — is compared separately; see
// proto's sameShape).
func (v *Variable) EqualValue(o *Variable) bool {
	return v.Value == o.Value && v.X == o.X && v.Unknown == o.Unknown &&
		wordsEqual(v.Hi, o.Hi) && wordsEqual(v.XHi, o.XHi)
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Thread is one concurrent hardware instance stopped at a source
// location (paper Fig. 4 B).
type Thread struct {
	// BreakpointID identifies the symtab breakpoint row.
	BreakpointID int64 `json:"breakpoint_id"`
	// Instance is the symtab-relative instance path.
	Instance string `json:"instance"`
	// Locals are the scope variables reconstructed for the frame.
	Locals []Variable `json:"locals"`
	// Generator are the instance-level generator variables.
	Generator []Variable `json:"generator"`
}

// StopEvent describes one debugger stop.
type StopEvent struct {
	// Time is the simulation time of the stop.
	Time uint64 `json:"time"`
	// File/Line/Col locate the generator source statement.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Threads are the instances that hit the location this cycle.
	Threads []Thread `json:"threads"`
	// Reverse reports whether the stop was reached by reverse
	// execution.
	Reverse bool `json:"reverse"`
	// StepStop reports a stop produced by stepping rather than an
	// inserted breakpoint.
	StepStop bool `json:"step_stop"`
	// Watch carries triggered watchpoints when the stop came from a
	// data breakpoint rather than a source location.
	Watch []WatchHit `json:"watch,omitempty"`
}

// Handler receives stop events and returns the next command. It runs on
// the simulation goroutine: the simulator is paused for as long as the
// handler takes — exactly the paper's model, where hgdb blocks inside
// the clock callback while the user inspects state.
type Handler func(*StopEvent) Command

// insertedBP is one armed emulated breakpoint: its symbol-table row and
// its two armed expressions.
type insertedBP struct {
	bp     symtab.Breakpoint
	enable *armedExpr // nil = always enabled
	cond   *armedExpr // user condition; nil = none
}

// group is a set of breakpoints sharing one source statement; its
// members are the statement's instances.
type group struct {
	file    string
	line    int
	col     int
	ordinal int
	bps     []*insertedBP
}

func (g *group) key() groupKey {
	return groupKey{file: g.file, line: g.line, ordinal: g.ordinal}
}

type groupKey struct {
	file    string
	line    int
	ordinal int
}

// Runtime is the hgdb debugger runtime.
type Runtime struct {
	backend vpi.Interface
	table   *symtab.Table
	remap   *symtab.Remap

	mu       sync.Mutex
	inserted map[int64]*insertedBP
	handler  Handler

	// stepping state
	stepArmed    bool // stop at the next enabled statement
	reverseArmed bool // schedule in reverse on the next evaluation
	interrupted  bool // InterruptNext since the last edge or stop: survives the walk
	detached     bool

	// wake rouses a parked Drive loop (see drive.go): arming, pausing
	// and installing a handler each leave one token, sent without
	// blocking under mu.
	wake chan struct{}

	watches   []*Watchpoint
	nextWatch int

	cbID      int
	attached  bool
	stopCount uint64
	allGroups []*group // all symtab statements, for stepping

	// queries holds pending debugger queries awaiting a drain point
	// with stable simulation state; execMu serializes every job's
	// execution across all drain points so two queries can never touch
	// the unsynchronized backend concurrently; edgeSeen counts clock
	// edges so the idle fallback can tell a quiet simulator from one
	// that came alive mid-grace (see query.go).
	queries  chan *QueryJob
	execMu   sync.Mutex
	edgeSeen atomic.Uint64
	// idleSince memoizes "the simulation was idle at edge count N":
	// holds edgeSeen+1 as observed by the last inline fallback (0 =
	// none), letting later queries skip the idle-grace wait until an
	// edge advances the counter (see query.go).
	idleSince atomic.Uint64

	// Per-cycle prefetch cache (simulation-goroutine state, except
	// depsDirty which rt.mu guards): the union of every armed
	// expression's dependency paths that resolve, their handles and
	// types (each path resolved once per union rebuild), their batched
	// words for the current cycle (the first slots of the fused
	// program's plane), per-slot fetch success, and whether any fetch of
	// the last refresh failed.
	depsDirty     bool
	depUnion      []string
	depHandles    []vpi.Handle
	depTypes      []eval.Value
	prefetched    []uint64
	prefetchOK    []bool
	readFailed    bool
	prefetchTime  uint64
	prefetchValid bool

	// Activity-driven scheduling state (simulation goroutine only,
	// except the atomics). The fused walk skips any condition whose last
	// evaluation was a sound miss and whose dependency slots have been
	// clean at every cache refresh since; a slot is dirty when its
	// refreshed value differs from the cached one (or either read
	// failed). See DESIGN.md "Activity-driven scheduling".
	exhaustive atomic.Bool // SetExhaustiveEval: the EvalBits reference
	incoming   []uint64    // refresh scratch (read-then-diff)
	incomingOK []bool      // refresh scratch: per-slot read success
	dirtySlots []uint64    // the last refresh's dirty union slots, a bitset

	// Per-group scheduling state: each statement's position in
	// allGroups, plus — rebuilt with the dependency union — armed-member
	// counts, the armed groups' indices in schedule order (all a
	// forward, non-stepping walk visits) and the slot→watches inverted
	// index (dirt propagation; watchedSlots says any watch reads a
	// slot).
	groupIdx     map[groupKey]int
	groupArmed   []int
	armed        []int
	slotWatches  [][]*Watchpoint
	watchedSlots bool

	// Statistics (atomic: benchmarks read them cross-routine).
	evalCount     atomic.Uint64 // breakpoint condition evaluations
	statSkipped   atomic.Uint64 // armed groups skipped as provably clean misses
	statEvaluated atomic.Uint64 // groups evaluated with at least one member

	// evaluateGroup scratch and buildEvent's frame layouts (simulation
	// goroutine only).
	memberBuf []*insertedBP
	plans     framePlans

	// Fused schedule compilation state (see fused.go): the
	// whole-schedule fused program and its skip bitmap, rebuilt with the
	// dependency union.
	fused         *fusedState
	statFusedRuns atomic.Uint64 // fused whole-schedule executions
}

// New attaches a runtime to a backend and symbol table. The design is
// located inside the simulated hierarchy via instance-name matching.
func New(backend vpi.Interface, table *symtab.Table) (*Runtime, error) {
	remap, err := symtab.NewRemap(backend.Hierarchy(), table)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		backend:  backend,
		table:    table,
		remap:    remap,
		inserted: map[int64]*insertedBP{},
		queries:  make(chan *QueryJob, queryQueueDepth),
		wake:     make(chan struct{}, 1),
		plans: framePlans{
			locals:    map[int64][]frameSlot{},
			generator: map[string][]frameSlot{},
		},
	}
	rt.allGroups = rt.buildAllGroups()
	rt.groupIdx = make(map[groupKey]int, len(rt.allGroups))
	for i, g := range rt.allGroups {
		rt.groupIdx[g.key()] = i
	}
	// Build the (empty) dependency union and per-group scheduling
	// arrays up front so the scheduler never sees them nil — stepping
	// can run before any breakpoint is armed.
	rt.rebuildDeps()
	rt.cbID = backend.OnClockEdge(rt.onEdge)
	rt.attached = true
	return rt, nil
}

// SetExhaustiveEval (on=true) turns the runtime into the differential
// reference the fast path is pinned against: every armed group at
// every clock edge is evaluated with the general four-state evaluator,
// with no prefetch, no fusion and no activity skipping. Call before
// driving the simulation.
func (rt *Runtime) SetExhaustiveEval(on bool) { rt.exhaustive.Store(on) }

// FuseInfo reports the current fused schedule's shape (expr.FuseStats:
// fused conditions, prelude instructions, the instruction runs the
// prelude saves, union slots read, instructions per full run). ok is
// false when nothing fused: no armed condition, or none the fuser
// took.
func (rt *Runtime) FuseInfo() (stats expr.FuseStats, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.fused == nil || rt.fused.sched == nil {
		return expr.FuseStats{}, false
	}
	return rt.fused.sched.Stats, true
}

// FusedRuns reports how many times the fused whole-schedule program has
// executed (at most once per clock edge plus handler invalidations).
func (rt *Runtime) FusedRuns() uint64 { return rt.statFusedRuns.Load() }

// ActivityStats returns counters for the activity-driven scheduler:
// armed groups skipped as provably-clean misses and groups actually
// evaluated. The third result is always 0: no backend narrows a cache
// refresh (every refresh reads the whole dependency union and diffs it
// against the cache), and the result stays only so existing callers
// keep compiling.
func (rt *Runtime) ActivityStats() (skipped, evaluated, partialRefreshes uint64) {
	return rt.statSkipped.Load(), rt.statEvaluated.Load(), 0
}

// buildAllGroups precomputes the absolute ordering of every potential
// breakpoint (§3.2: "Before the simulation starts, we compute the
// absolute ordering of every potential breakpoint").
func (rt *Runtime) buildAllGroups() []*group {
	byKey := map[groupKey]*group{}
	var order []groupKey
	for _, bp := range rt.table.AllBreakpoints() {
		ibp, err := rt.prepare(bp, "")
		if err != nil {
			continue
		}
		g, ok := byKey[ibp.key()]
		if !ok {
			g = &group{file: bp.Filename, line: bp.Line, col: bp.Col, ordinal: bp.Order}
			byKey[ibp.key()] = g
			order = append(order, ibp.key())
		}
		g.bps = append(g.bps, ibp)
	}
	groups := make([]*group, 0, len(order))
	for _, k := range order {
		groups = append(groups, byKey[k])
	}
	sortGroups(groups)
	return groups
}

func sortGroups(groups []*group) {
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.ordinal < b.ordinal
	})
}

func (ibp *insertedBP) key() groupKey {
	return groupKey{file: ibp.bp.Filename, line: ibp.bp.Line, ordinal: ibp.bp.Order}
}

// prepare parses and folds the enable and user conditions of a
// breakpoint and resolves every name they read to its simulator path —
// the compile-once half of the pipeline.
func (rt *Runtime) prepare(bp symtab.Breakpoint, userCond string) (*insertedBP, error) {
	ibp := &insertedBP{bp: bp}
	inst := bp.InstanceName
	var err error
	if bp.Enable != "" {
		// Enable conditions speak in instance-local RTL names.
		ibp.enable, err = newArmedExpr(bp.Enable, func(name string) (string, error) {
			return rt.remap.ToSim(inst + "." + name), nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: bad enable condition %q: %w", bp.Enable, err)
		}
	}
	if userCond != "" {
		// User conditions speak in source-level names. A name no link of
		// the chain resolves stays as written; rebuildDeps then leaves it
		// out of the union, and the condition's reads of it fail.
		ibp.cond, err = newArmedExpr(userCond, func(name string) (string, error) {
			path, _ := rt.resolveSourceName(bp.ID, inst, name)
			return path, nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: bad breakpoint condition %q: %w", userCond, err)
		}
	}
	return ibp, nil
}

// SetHandler installs the stop handler; nil removes it. Without a
// handler no edge can stop: the clock callback takes its fast exit and
// Drive parks until a handler is installed.
func (rt *Runtime) SetHandler(h Handler) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.handler = h
	rt.wakeLocked()
}

// AddBreakpoint arms every emulated breakpoint at file:line (one per
// matching statement per instance), with an optional user condition in
// the debugger expression language. It returns the armed breakpoint
// ids.
func (rt *Runtime) AddBreakpoint(file string, line int, cond string) ([]int64, error) {
	bps := rt.table.BreakpointsAt(file, line)
	if len(bps) == 0 {
		return nil, fmt.Errorf("core: no breakpoint at %s:%d", file, line)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var ids []int64
	for _, bp := range bps {
		ibp, err := rt.prepare(bp, cond)
		if err != nil {
			return nil, err
		}
		rt.inserted[bp.ID] = ibp
		ids = append(ids, bp.ID)
	}
	rt.markDepsDirty()
	return ids, nil
}

// AddBreakpointInstance arms breakpoints at file:line for one specific
// instance only — the per-thread breakpoint scoping an IDE offers when
// the user picks a single hardware thread (Fig. 4 B).
func (rt *Runtime) AddBreakpointInstance(file string, line int, instance, cond string) ([]int64, error) {
	bps := rt.table.BreakpointsAt(file, line)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var ids []int64
	for _, bp := range bps {
		if bp.InstanceName != instance {
			continue
		}
		ibp, err := rt.prepare(bp, cond)
		if err != nil {
			return nil, err
		}
		rt.inserted[bp.ID] = ibp
		ids = append(ids, bp.ID)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: no breakpoint at %s:%d in instance %s", file, line, instance)
	}
	rt.markDepsDirty()
	return ids, nil
}

// RemoveBreakpoint disarms all breakpoints at file:line; line <= 0
// disarms the whole file.
func (rt *Runtime) RemoveBreakpoint(file string, line int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	removed := 0
	for id, ibp := range rt.inserted {
		if ibp.bp.Filename == file && (line <= 0 || ibp.bp.Line == line) {
			delete(rt.inserted, id)
			removed++
		}
	}
	if removed > 0 {
		rt.markDepsDirty()
	}
	return removed
}

// ClearBreakpoints disarms everything.
func (rt *Runtime) ClearBreakpoints() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.inserted = map[int64]*insertedBP{}
	rt.markDepsDirty()
}

// ListBreakpoints returns the armed breakpoints in scheduling order.
func (rt *Runtime) ListBreakpoints() []symtab.Breakpoint {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []symtab.Breakpoint
	for _, ibp := range rt.inserted {
		out = append(out, ibp.bp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InterruptNext arms a step stop at the next evaluated statement
// (asynchronous pause). A pause that arrives while the scheduler walks
// an edge survives the walk: the next edge stops at its first enabled
// statement. A reverse-continue walk honours it at its next cycle
// boundary. A pause that arrives while parked in the handler is
// superseded by the command the handler returns.
func (rt *Runtime) InterruptNext() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.stepArmed = true
	rt.interrupted = true
	rt.wakeLocked()
}

// Detach removes the clock callback; the simulation runs free.
func (rt *Runtime) Detach() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.attached {
		rt.backend.RemoveCallback(rt.cbID)
		rt.attached = false
	}
	rt.detached = true
}

// Stats returns (condition evaluations, stops) counters.
func (rt *Runtime) Stats() (evals, stops uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.evalCount.Load(), rt.stopCount
}

// Backend exposes the underlying vpi interface (for value get/set
// passthrough in the debugger protocol).
func (rt *Runtime) Backend() vpi.Interface { return rt.backend }

// Table exposes the symbol table.
func (rt *Runtime) Table() *symtab.Table { return rt.table }

// Remap exposes the hierarchy mapping.
func (rt *Runtime) Remap() *symtab.Remap { return rt.remap }
