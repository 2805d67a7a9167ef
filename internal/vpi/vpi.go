// Package vpi defines the paper's unified simulator interface (§3.3): a
// minimum set of primitives — get value, get hierarchy and clock
// information, clock-edge callbacks, get/set time, set value — that
// every backend (live simulator, trace replay) implements. hgdb's
// runtime is written only against this interface, which is what makes
// it simulator-agnostic; in the paper the same role is played by a
// small, universally supported subset of the Verilog Procedural
// Interface.
package vpi

import (
	"errors"
	"fmt"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// ErrNotSupported is returned by optional primitives a backend does not
// implement (e.g. SetValue on a trace file, SetTime on a live run).
var ErrNotSupported = errors.New("vpi: operation not supported by this backend")

// Interface is the unified simulator interface.
type Interface interface {
	// GetValue returns the current value of a signal by full
	// hierarchical name. Essential for breakpoint emulation and frame
	// reconstruction.
	GetValue(path string) (eval.Value, error)

	// Hierarchy returns the design instance tree. Used to locate
	// generated IP inside the full testbench.
	Hierarchy() *rtl.InstanceNode

	// ClockName returns the full hierarchical name of the primary
	// clock, so the runtime knows which edge pauses the design.
	ClockName() string

	// OnClockEdge registers a callback invoked at each positive clock
	// edge with combinational state settled; returns a removal id.
	OnClockEdge(cb func(time uint64)) int

	// RemoveCallback removes a clock-edge callback.
	RemoveCallback(id int)

	// Time returns the current simulation time (cycles).
	Time() uint64

	// SetTime moves simulation time (optional; replay backends only —
	// this is what enables full reverse debugging).
	SetTime(t uint64) error

	// SetValue deposits a value into the design (optional; live
	// simulation only).
	SetValue(path string, v uint64) error

	// Resolve looks a signal up by full hierarchical name once and
	// returns a handle to read it through — the interface's
	// vpi_handle_by_name — and the signal's two-state type: a zero
	// eval.Value of its declared width and signedness, fixed for the
	// handle's life. An unknown path is an error.
	Resolve(path string) (Handle, eval.Value, error)

	// ReadValues reads the current value of every handle in hs into
	// dst, in one call, as words: each value's bits, zero-extended
	// above the width of the type Resolve reported. ok[i] reports
	// whether slot i was read: a value with x/z bits or wider than 64
	// bits, an unreadable signal and NoHandle leave ok[i] false. dst
	// and ok must be at least len(hs) long. The debugger reads its
	// whole armed dependency union through one call at every clock
	// edge and diffs the words into the first slots of its fused
	// condition program's value plane, so the call must not allocate;
	// on a real VPI transport it is one round trip instead of one per
	// signal (§4.3).
	ReadValues(hs []Handle, dst []uint64, ok []bool)
}

// Handle is a resolved signal: what Resolve returns and ReadValues
// reads through, so a per-cycle read pays no name lookup. Its value is
// private to the backend that returned it.
type Handle int32

// NoHandle stands in for a path that did not resolve. Every read
// through it fails.
const NoHandle Handle = -1

// Prefetcher is an optional backend capability: the debugger advises
// the backend which signal paths it will read every cycle (the union of
// every armed breakpoint/watch condition's dependencies) so the backend
// can prepare. A live simulator ignores the hint; the replay block
// store materializes exactly those signals' timelines, keeping
// per-cycle condition evaluation off the undecoded trace index. The
// hint is advisory — reads outside the advised set must still work.
type Prefetcher interface {
	// Prefetch advises the per-cycle read set. The slice is owned by
	// the caller; implementations must not retain it.
	Prefetch(paths []string)
}

// SimBackend adapts the live simulator to the unified interface.
type SimBackend struct {
	Sim *sim.Simulator
}

var _ Interface = (*SimBackend)(nil)

// NewSimBackend wraps a live simulator.
func NewSimBackend(s *sim.Simulator) *SimBackend { return &SimBackend{Sim: s} }

// GetValue implements Interface.
func (b *SimBackend) GetValue(path string) (eval.Value, error) {
	return b.Sim.Peek(path)
}

// Resolve implements Interface: a live handle is the signal's netlist
// index, its type the signal's declared type.
func (b *SimBackend) Resolve(path string) (Handle, eval.Value, error) {
	sig, ok := b.Sim.Netlist().Signal(path)
	if !ok {
		return NoHandle, eval.Value{}, fmt.Errorf("vpi: unknown signal %q", path)
	}
	return Handle(sig.Index), eval.Make(0, sig.Width, sig.Signed), nil
}

// ReadValues implements Interface by netlist index, without allocating.
// The simulator is two-state, so every resolved slot reads.
func (b *SimBackend) ReadValues(hs []Handle, dst []uint64, ok []bool) {
	for i, h := range hs {
		v, read := b.Sim.PeekIndex(int(h))
		dst[i], ok[i] = v.Bits, read
	}
}

// Hierarchy implements Interface.
func (b *SimBackend) Hierarchy() *rtl.InstanceNode { return b.Sim.Netlist().Hierarchy }

// ClockName implements Interface.
func (b *SimBackend) ClockName() string {
	return b.Sim.Netlist().Top + ".clock"
}

// OnClockEdge implements Interface.
func (b *SimBackend) OnClockEdge(cb func(time uint64)) int {
	return b.Sim.OnClockEdge(cb)
}

// RemoveCallback implements Interface.
func (b *SimBackend) RemoveCallback(id int) { b.Sim.RemoveCallback(id) }

// Time implements Interface.
func (b *SimBackend) Time() uint64 { return b.Sim.Time() }

// SetTime implements Interface; live simulation cannot move backwards.
func (b *SimBackend) SetTime(uint64) error {
	return fmt.Errorf("%w: live simulation cannot seek in time", ErrNotSupported)
}

// SetValue implements Interface.
func (b *SimBackend) SetValue(path string, v uint64) error {
	sig, ok := b.Sim.Netlist().Signal(path)
	if !ok {
		return fmt.Errorf("vpi: unknown signal %q", path)
	}
	if sig.Kind == rtl.KindReg {
		return b.Sim.PokeReg(path, v)
	}
	return b.Sim.Poke(path, v)
}
