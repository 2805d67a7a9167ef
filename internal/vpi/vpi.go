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
}

// BatchReaderInto is an optional backend capability: fetch many signal
// values in one call, into a caller-owned buffer. The debugger's
// clock-edge callback reads the union of every inserted breakpoint's
// dependencies each cycle; doing that through one batched call instead
// of one GetValue round trip per signal per breakpoint is what keeps
// the per-cycle overhead flat as breakpoints accumulate (§4.3). On a
// real VPI transport each GetValue is an IPC round trip, so the
// capability matters even more there. The same read is the whole input
// of activity-driven scheduling: the debugger diffs it against the
// previous edge's values, so backends never report changes themselves.
// The prefetch runs every cycle for the simulation's lifetime, so the
// destination is reused and the read must not allocate.
type BatchReaderInto interface {
	// GetValuesInto writes the current value of each path into dst
	// (which must be at least len(paths) long).
	GetValuesInto(paths []string, dst []eval.Value) error
}

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

// ReadBatchInto reads many signals into a caller-owned buffer through
// the backend's native BatchReaderInto primitive when it has one,
// falling back to one GetValue call per path otherwise. Any unknown
// path fails the whole batch; callers that tolerate partial results
// must probe individually.
func ReadBatchInto(b Interface, paths []string, dst []eval.Value) error {
	if len(dst) < len(paths) {
		return fmt.Errorf("vpi: batch destination too short: %d < %d", len(dst), len(paths))
	}
	if bi, ok := b.(BatchReaderInto); ok {
		return bi.GetValuesInto(paths, dst)
	}
	for i, p := range paths {
		v, err := b.GetValue(p)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// SimBackend adapts the live simulator to the unified interface.
type SimBackend struct {
	Sim *sim.Simulator
}

var (
	_ Interface       = (*SimBackend)(nil)
	_ BatchReaderInto = (*SimBackend)(nil)
)

// NewSimBackend wraps a live simulator.
func NewSimBackend(s *sim.Simulator) *SimBackend { return &SimBackend{Sim: s} }

// GetValue implements Interface.
func (b *SimBackend) GetValue(path string) (eval.Value, error) {
	return b.Sim.Peek(path)
}

// GetValuesInto implements BatchReaderInto with the simulator's native
// batched peek, without allocating.
func (b *SimBackend) GetValuesInto(paths []string, dst []eval.Value) error {
	return b.Sim.PeekBatch(paths, dst)
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
