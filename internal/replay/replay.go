// Package replay implements the paper's trace-based replay backend: the
// same unified simulator interface as a live simulation, but backed by
// a recorded VCD trace. Because SetTime works in both directions, the
// hgdb runtime can extend intra-cycle reverse debugging to full reverse
// debugging — stepping to previous clock cycles and re-running the
// breakpoint schedule in reverse order (§3.2).
//
// The trace is a vcd.Store block index, parsed from VCD text or opened
// from an indexed store file. Signal timelines decode lazily (Prefetch
// materializes the debugger's dependency union), and a read after
// SetTime restores the nearest periodic value-snapshot checkpoint then
// replays forward deltas, making a reverse step — or a forward jump
// over time already swept — O(checkpoint interval) instead of O(t) on
// undecoded state.
package replay

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/val"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// Engine replays a trace store behind the vpi.Interface, with the
// prefetch and four-state-read capabilities. One cursor
// walks the trace: the checkpointed replay state that serves reads of
// signals outside the materialized set.
type Engine struct {
	st       *vcd.Store
	interval uint64

	// time is atomic because the debug server dispatches raw reads on
	// connection goroutines while the owning goroutine steps/seeks; a
	// batched read loads it once so one batch sees one instant.
	time      atomic.Uint64
	callbacks map[int]func(uint64)
	cbOrder   []int
	nextCB    int

	// mu guards the replay state below. Syncing moves shared state, and
	// the debug server dispatches raw get_value reads on connection
	// goroutines while the simulation goroutine replays — both can land
	// in sync at once. Materialized reads never take the lock; they see
	// an immutable timeline.
	mu sync.Mutex

	// Replay state: the packed four-state planes of every signal at
	// stateTime (laid out by the store; read via StateBits); cur is the
	// stream position just past the last applied record.
	state     *vcd.State
	stateTime uint64
	cur       vcd.Cursor

	// cps maps checkpoint time → snapshot; cpTimes holds the same times
	// sorted ascending so restore can binary-search the nearest one.
	cps     map[uint64]*snapshot
	cpTimes []uint64
}

var (
	_ vpi.Interface  = (*Engine)(nil)
	_ vpi.Prefetcher = (*Engine)(nil)
	_ vpi.BitsReader = (*Engine)(nil)
)

// NewStore wraps a trace store with checkpointed state reconstruction;
// see the package comment and WithCheckpointInterval.
func NewStore(st *vcd.Store, opts ...StoreEngineOption) *Engine {
	e := &Engine{
		st:        st,
		callbacks: map[int]func(uint64){},
		state:     st.NewState(),
		cps:       map[uint64]*snapshot{},
	}
	for _, o := range opts {
		o(e)
	}
	if e.interval == 0 {
		e.interval = st.MaxTime/DefaultMaxCheckpoints + 1
		if bs := st.BlockSize(); e.interval < bs {
			e.interval = bs
		}
	}
	e.resetToZero()
	return e
}

// MaxTime returns the final timestamp in the trace.
func (e *Engine) MaxTime() uint64 { return e.st.MaxTime }

// Checkpoints returns how many value-snapshot restore points the
// engine currently holds.
func (e *Engine) Checkpoints() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cps)
}

// Prefetch implements vpi.Prefetcher: the debugger runtime advises the
// set of signal paths it will read every cycle (its breakpoint/watch
// dependency union), and the store materializes exactly those
// timelines so per-cycle reads never touch undecoded blocks or move the
// full replay state.
func (e *Engine) Prefetch(paths []string) { e.st.Materialize(paths...) }

// GetValue implements vpi.Interface: the signal's recorded value at the
// current replay time, lowered onto the two-state fast path. A value
// that cannot be lowered — x/z bits, or wider than 64 bits — returns an
// error wrapping vpi.ErrFourState; callers that can handle the general
// representation read through GetBits instead.
func (e *Engine) GetValue(path string) (eval.Value, error) {
	b, err := e.bits(path, e.time.Load())
	if err != nil {
		return eval.Value{}, err
	}
	v, ok := eval.FromBits(b)
	if !ok {
		return eval.Value{}, fmt.Errorf("%w: %s = %s", vpi.ErrFourState, path, b.String())
	}
	return v, nil
}

// GetBits implements vpi.BitsReader: the signal's full four-state value
// at the current replay time.
func (e *Engine) GetBits(path string) (val.Bits, error) {
	return e.bits(path, e.time.Load())
}

// Resolve implements vpi.Interface: a replay handle is the signal's
// dense store index, its type the trace's declared width, unsigned (a
// trace records no signedness).
func (e *Engine) Resolve(path string) (vpi.Handle, eval.Value, error) {
	ts, ok := e.st.Signal(path)
	if !ok {
		return vpi.NoHandle, eval.Value{}, fmt.Errorf("replay: unknown signal %q", path)
	}
	return vpi.Handle(ts.Index()), eval.Value{Width: ts.Width}, nil
}

// ReadValues implements vpi.Interface: every slot at one replay
// instant, without a name lookup and without allocating. A slot holding
// x/z bits or more than 64 bits, or one a poisoned store cannot read,
// comes back not ok.
func (e *Engine) ReadValues(hs []vpi.Handle, dst []uint64, ok []bool) {
	t := e.time.Load()
	for i, h := range hs {
		dst[i], ok[i] = 0, false
		ts, found := e.st.SignalByIndex(int(h))
		if !found || ts.Width > 64 {
			// A wide signal never lowers; skipping the read keeps its
			// planes from being copied out of the replay state.
			continue
		}
		if b, err := e.bitsOf(ts, t); err == nil {
			dst[i], ok[i] = b.AsUint64()
		}
	}
}

// Hierarchy implements vpi.Interface with the scope tree reconstructed
// from the trace (hierarchy only — no definition information, as the
// paper notes for VCD).
func (e *Engine) Hierarchy() *rtl.InstanceNode { return e.st.Hierarchy }

// ClockName implements vpi.Interface.
func (e *Engine) ClockName() string {
	if e.st.Hierarchy == nil {
		return "clock"
	}
	return e.st.Hierarchy.Path + ".clock"
}

// OnClockEdge implements vpi.Interface.
func (e *Engine) OnClockEdge(cb func(time uint64)) int {
	id := e.nextCB
	e.nextCB++
	e.callbacks[id] = cb
	e.cbOrder = append(e.cbOrder, id)
	return id
}

// RemoveCallback implements vpi.Interface. It may run inside a
// callback: cbOrder is rebuilt rather than edited in place, so the
// edge being fired keeps ranging over its own snapshot (and skips the
// removed id through the callbacks map).
func (e *Engine) RemoveCallback(id int) {
	delete(e.callbacks, id)
	order := make([]int, 0, len(e.cbOrder))
	for _, v := range e.cbOrder {
		if v != id {
			order = append(order, v)
		}
	}
	e.cbOrder = order
}

// Time implements vpi.Interface.
func (e *Engine) Time() uint64 { return e.time.Load() }

// SetTime implements vpi.Interface — the primitive that unlocks reverse
// debugging. Seeking does not fire edge callbacks; use StepForward and
// StepBackward to emulate clock edges. A backward seek, and a forward
// one over time already swept, costs O(checkpoint interval) trace
// records, not O(t).
func (e *Engine) SetTime(t uint64) error {
	if t > e.st.MaxTime {
		return fmt.Errorf("replay: time %d beyond end of trace (%d)", t, e.st.MaxTime)
	}
	e.time.Store(t)
	return nil
}

// SetValue implements vpi.Interface; traces are immutable.
func (e *Engine) SetValue(string, uint64) error {
	return fmt.Errorf("%w: cannot set values on a trace file", vpi.ErrNotSupported)
}

func (e *Engine) fire() {
	for _, id := range e.cbOrder {
		if cb, ok := e.callbacks[id]; ok {
			cb(e.time.Load())
		}
	}
}

// StepForward advances one cycle and fires edge callbacks; returns
// false at the end of the trace.
func (e *Engine) StepForward() bool {
	t := e.time.Load()
	if t >= e.st.MaxTime {
		return false
	}
	e.time.Store(t + 1)
	e.fire()
	return true
}

// StepBackward rewinds one cycle and fires edge callbacks; returns
// false at time zero.
func (e *Engine) StepBackward() bool {
	t := e.time.Load()
	if t == 0 {
		return false
	}
	e.time.Store(t - 1)
	e.fire()
	return true
}

// Run advances up to n cycles, stopping at the end of the trace.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		if !e.StepForward() {
			return
		}
	}
}
