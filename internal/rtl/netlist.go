// Package rtl turns Low-form IR into a flattened, simulatable netlist.
// The hierarchy is inlined (instance signals get dot-separated path
// prefixes, e.g. Top.cpu0.alu._T_3) while an instance tree is kept as
// metadata so the VPI-style interface can answer hierarchy queries —
// the paper's design point 3.4: flat simulation, hierarchical names.
package rtl

import (
	"fmt"
	"sort"
	"strings"
)

// SignalKind classifies netlist signals.
type SignalKind int

const (
	// KindInput is a top-level input, settable by the testbench.
	KindInput SignalKind = iota
	// KindNode is a combinationally assigned signal.
	KindNode
	// KindReg is a clocked register.
	KindReg
)

func (k SignalKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindNode:
		return "node"
	case KindReg:
		return "reg"
	}
	return "?"
}

// Signal is one flattened net.
type Signal struct {
	// Name is the full hierarchical name, dot separated, rooted at the
	// top module name.
	Name   string
	Width  int
	Signed bool
	Kind   SignalKind
	// Index is the signal's slot in the Program's value plane.
	Index int
}

// MemSpec is one behavioral memory. Its read and write ports live in
// the netlist's Program, which addresses it by its index in Mems.
type MemSpec struct {
	Name  string
	Width int
	Depth int
}

// InstanceNode is one node of the preserved design hierarchy.
type InstanceNode struct {
	// Name is the instance name ("cpu0"); the root uses the top module
	// name.
	Name string
	// Module is the defining module name.
	Module string
	// Path is the full dot-separated path of this instance.
	Path     string
	Children []*InstanceNode
	// Signals lists the local signal names (not full paths) visible in
	// this instance.
	Signals []string
}

// FindChild returns the named child instance, or nil.
func (n *InstanceNode) FindChild(name string) *InstanceNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Walk visits the instance tree depth-first, parents first.
func (n *InstanceNode) Walk(fn func(*InstanceNode)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Netlist is the flattened design.
type Netlist struct {
	Top     string
	Signals []*Signal
	byName  map[string]*Signal
	// Inputs lists top-level inputs (including clock and reset).
	Inputs []*Signal
	// Outputs lists top-level outputs.
	Outputs []*Signal
	// Regs lists the registers that have a next value, sorted by name.
	Regs []*Signal
	Mems []*MemSpec
	// Program is the design lowered for simulation: every combinational
	// assign, register next-value and memory write port as flat
	// instructions over one value plane.
	Program *Program
	// Hierarchy is the preserved instance tree rooted at the top module.
	Hierarchy *InstanceNode
}

// Signal returns the signal with the given full hierarchical name.
func (nl *Netlist) Signal(name string) (*Signal, bool) {
	s, ok := nl.byName[name]
	return s, ok
}

// SignalNames returns all signal names in sorted order.
func (nl *Netlist) SignalNames() []string {
	names := make([]string, 0, len(nl.Signals))
	for _, s := range nl.Signals {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// NumSignals returns the total signal count.
func (nl *Netlist) NumSignals() int { return len(nl.Signals) }

// Stats summarizes the netlist for reports.
func (nl *Netlist) Stats() string {
	p := nl.Program
	return fmt.Sprintf("signals=%d instrs=%d regs=%d mems=%d",
		len(nl.Signals), len(p.Settle)+len(p.Edge), len(nl.Regs), len(nl.Mems))
}

func (nl *Netlist) addSignal(name string, width int, signed bool, kind SignalKind) *Signal {
	s := &Signal{Name: name, Width: width, Signed: signed, Kind: kind, Index: len(nl.Signals)}
	nl.Signals = append(nl.Signals, s)
	nl.byName[name] = s
	return s
}

// localName strips the instance path prefix from a full signal name.
func localName(full string) string {
	if i := strings.LastIndexByte(full, '.'); i >= 0 {
		return full[i+1:]
	}
	return full
}
