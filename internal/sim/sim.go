// Package sim is a cycle-accurate RTL simulator for elaborated
// netlists. It implements the two properties the paper's breakpoint
// emulation relies on (§3): designs are synchronous (state advances only
// at the positive clock edge) and logic is zero-delay (all combinational
// values are stable when the edge callback fires). Callbacks registered
// on the clock edge observe the settled pre-edge state — the same
// contract hgdb gets from commercial simulators through VPI.
package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/rtl"
)

// EdgeCallback is invoked once per positive clock edge after
// combinational logic settles and before registers commit. The paper's
// hgdb runtime does all breakpoint work inside this callback.
type EdgeCallback func(time uint64)

// Simulator advances an elaborated netlist cycle by cycle by running
// its flat Program (rtl.Program) over one value plane.
type Simulator struct {
	nl   *rtl.Netlist
	prog *rtl.Program
	// plane is the program's value plane: slot i is signal i, then the
	// program's temporaries and constants.
	plane []uint64
	// types holds each signal's declared type (a zero value), which is
	// its slot's type for good.
	types []eval.Value
	// mems are the memories' words, indexed like nl.Mems; memIndex
	// maps a memory's name to its index.
	mems     [][]uint64
	memIndex map[string]int
	time     uint64
	// callbacks fire at every posedge in cbOrder; removal is by id and
	// replaces cbOrder instead of editing it (see RemoveCallback).
	callbacks map[int]EdgeCallback
	cbOrder   []int
	nextCB    int
	// changeHooks observe committed value changes (used by VCD dumping);
	// prev holds each signal's last reported bits.
	changeHooks []func(sig *rtl.Signal, v eval.Value)
	prev        []uint64
	trackChange bool
	// poked records a Poke, PokeReg or WriteMem since the last edge
	// (or an initial report taken before any settle): the next Step
	// then reports the settled pre-edge changes at the current time,
	// before the edge callbacks read them, so a trace shows a poked
	// value at the edge that saw it.
	poked bool

	// gen is the state publication point: every mutating operation
	// bumps it when done (release), every read loads it first
	// (acquire). This orders a read that happens after the simulation
	// went quiet against the final writes of the goroutine that drove
	// it — the debugger's idle-query fallback relies on this. It does
	// NOT license truly concurrent access while the simulator is
	// stepping; the debugger runtime serializes that through its
	// clock-edge query queue.
	gen atomic.Uint64
}

// publish marks the end of a state mutation (release half of the
// publication point).
func (s *Simulator) publish() { s.gen.Add(1) }

// syncPoint precedes a state read (acquire half).
func (s *Simulator) syncPoint() { s.gen.Load() }

// New builds a simulator. All signals start at zero and memories are
// zero-filled.
func New(nl *rtl.Netlist) *Simulator {
	s := &Simulator{
		nl:        nl,
		prog:      nl.Program,
		plane:     append([]uint64(nil), nl.Program.Init...),
		types:     make([]eval.Value, len(nl.Signals)),
		mems:      make([][]uint64, len(nl.Mems)),
		memIndex:  make(map[string]int, len(nl.Mems)),
		callbacks: map[int]EdgeCallback{},
	}
	for i, sig := range nl.Signals {
		s.types[i] = eval.Make(0, sig.Width, sig.Signed)
	}
	for i, m := range nl.Mems {
		s.mems[i] = make([]uint64, m.Depth)
		s.memIndex[m.Name] = i
	}
	return s
}

// value is signal i's current value.
func (s *Simulator) value(i int) eval.Value {
	v := s.types[i]
	v.Bits = s.plane[i]
	return v
}

// Netlist returns the design under simulation.
func (s *Simulator) Netlist() *rtl.Netlist { return s.nl }

// Time returns the current simulation time in cycles.
func (s *Simulator) Time() uint64 {
	s.syncPoint()
	return s.time
}

// Peek returns the current value of a signal by full hierarchical name.
func (s *Simulator) Peek(name string) (eval.Value, error) {
	s.syncPoint()
	sig, ok := s.nl.Signal(name)
	if !ok {
		return eval.Value{}, fmt.Errorf("sim: unknown signal %q", name)
	}
	return s.value(sig.Index), nil
}

// PeekIndex returns the current value of the signal with netlist index
// i: Peek without the name lookup, for callers that resolved the name
// once (vpi.SimBackend's handles). ok is false for an index outside the
// netlist.
func (s *Simulator) PeekIndex(i int) (v eval.Value, ok bool) {
	s.syncPoint()
	if uint(i) >= uint(len(s.types)) {
		return eval.Value{}, false
	}
	return s.value(i), true
}

// Poke sets a top-level input (or forces any signal, which the next
// settle may overwrite for combinational nodes).
func (s *Simulator) Poke(name string, v uint64) error {
	sig, ok := s.nl.Signal(name)
	if !ok {
		return fmt.Errorf("sim: unknown signal %q", name)
	}
	s.plane[sig.Index] = v & eval.Mask(sig.Width)
	s.poked = true
	s.publish()
	return nil
}

// PokeReg deposits a value directly into a register, bypassing the
// next-value logic for the current cycle (the debugger's set-value
// primitive).
func (s *Simulator) PokeReg(name string, v uint64) error {
	sig, ok := s.nl.Signal(name)
	if !ok {
		return fmt.Errorf("sim: unknown signal %q", name)
	}
	if sig.Kind != rtl.KindReg {
		return fmt.Errorf("sim: %q is not a register", name)
	}
	s.plane[sig.Index] = v & eval.Mask(sig.Width)
	s.poked = true
	s.publish()
	return nil
}

// WriteMem deposits a word into a memory (testbench program loading).
func (s *Simulator) WriteMem(mem string, addr uint64, v uint64) error {
	i, ok := s.memIndex[mem]
	if !ok {
		return fmt.Errorf("sim: unknown memory %q", mem)
	}
	data := s.mems[i]
	if addr >= uint64(len(data)) {
		return fmt.Errorf("sim: address %d out of range for %q (depth %d)", addr, mem, len(data))
	}
	data[addr] = v & eval.Mask(s.nl.Mems[i].Width)
	s.poked = true
	s.publish()
	return nil
}

// ReadMem reads a word from a memory.
func (s *Simulator) ReadMem(mem string, addr uint64) (uint64, error) {
	i, ok := s.memIndex[mem]
	if !ok {
		return 0, fmt.Errorf("sim: unknown memory %q", mem)
	}
	data := s.mems[i]
	if addr >= uint64(len(data)) {
		return 0, fmt.Errorf("sim: address %d out of range for %q", addr, mem)
	}
	s.syncPoint()
	return data[addr], nil
}

// OnClockEdge registers a callback invoked at every positive clock edge
// with settled combinational state. It returns an id for removal.
func (s *Simulator) OnClockEdge(cb EdgeCallback) int {
	id := s.nextCB
	s.nextCB++
	s.callbacks[id] = cb
	s.cbOrder = append(s.cbOrder, id)
	return id
}

// RemoveCallback deregisters a clock-edge callback. It may run inside
// a callback: cbOrder is rebuilt rather than edited in place, so the
// edge being dispatched keeps ranging over its own snapshot (and skips
// the removed id through the callbacks map).
func (s *Simulator) RemoveCallback(id int) {
	delete(s.callbacks, id)
	order := make([]int, 0, len(s.cbOrder))
	for _, v := range s.cbOrder {
		if v != id {
			order = append(order, v)
		}
	}
	s.cbOrder = order
}

// OnChange registers a hook observing committed value changes; used by
// trace writers. Enabling change tracking costs one extra value
// snapshot per cycle.
func (s *Simulator) OnChange(hook func(sig *rtl.Signal, v eval.Value)) {
	s.changeHooks = append(s.changeHooks, hook)
	if !s.trackChange {
		s.trackChange = true
		s.prev = make([]uint64, len(s.types))
		copy(s.prev, s.plane)
		// Report initial values; the next Step reports what settling
		// them changes at the current time.
		for i, sig := range s.nl.Signals {
			for _, h := range s.changeHooks {
				h(sig, s.value(i))
			}
		}
		s.poked = true
	}
}

// Settle evaluates all combinational logic in topological order: one
// pass of the program's Settle code. It is called automatically by
// Step; testbenches call it directly after poking inputs mid-cycle.
func (s *Simulator) Settle() {
	eval.Exec(s.prog.Settle, s.plane, s.mems)
	s.publish()
}

// Step advances one clock cycle:
//  1. combinational settle (change hooks see it at the current time
//     if a poke or memory write happened since the last edge),
//  2. posedge callbacks observe the stable pre-edge state,
//  3. registers and memories commit,
//  4. time advances and change hooks see the settled post-edge state.
func (s *Simulator) Step() {
	s.Settle()
	if s.poked {
		s.poked = false
		if s.trackChange {
			s.reportChanges()
		}
	}
	for _, id := range s.cbOrder {
		if cb, ok := s.callbacks[id]; ok {
			cb(s.time)
		}
	}
	eval.Exec(s.prog.Edge, s.plane, s.mems)
	s.time++
	if s.trackChange {
		s.Settle() // make post-edge combinational state visible to hooks
		s.reportChanges()
	}
	s.publish()
}

// reportChanges hands every signal whose value differs from the last
// report to the change hooks, at the current time.
func (s *Simulator) reportChanges() {
	for i, sig := range s.nl.Signals {
		if cur := s.plane[i]; cur != s.prev[i] {
			v := s.value(i)
			for _, h := range s.changeHooks {
				h(sig, v)
			}
			s.prev[i] = cur
		}
	}
}

// Run advances n cycles.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Reset asserts the named reset input for n cycles, then deasserts it.
func (s *Simulator) Reset(resetSignal string, n int) error {
	if err := s.Poke(resetSignal, 1); err != nil {
		return err
	}
	s.Run(n)
	return s.Poke(resetSignal, 0)
}
