package rtl

import "repro/internal/eval"

// Program is a netlist lowered to word instructions (eval.Instr) over
// one []uint64 value plane, run by eval.Exec. Slot i of the plane is
// signal i (Netlist.Signals[i]); the temporaries and the constants of
// the lowered expressions follow the signals. Every slot holds its
// value's bits zero-extended above its width; a signal slot's type is
// the signal's declared type, fixed at elaboration.
//
// Elaborate selects every instruction through eval.LowerPrim and
// eval.LowerMux, which type it by evaluating eval.Prim or eval.Mux on
// zero values of the operand types, so the program computes exactly
// what those functions compute: eval.Prim stays the one definition of
// the arithmetic.
type Program struct {
	// Init is the plane's initial contents: signals and temporaries
	// zero, constants filled in. Its length is the plane's size.
	Init []uint64
	// Settle evaluates every combinational assign, in topological
	// order.
	Settle []eval.Instr
	// Edge is the clock edge on a settled plane: it computes every
	// register next-value and memory write port operand from the
	// pre-edge state, then writes the memories (by memory in
	// Netlist.Mems order, then by port; eval.OpMemWrite's memory index
	// is into Netlist.Mems) and commits the registers.
	Edge []eval.Instr
}
