package eval

import (
	"testing"

	"repro/internal/ir"
)

// runSegment executes code as a one-condition fused program whose single
// segment reads the listed operand slots, returning the result and its
// soundness.
func runSegment(m *FusedMachine, code []Instr, numRegs int, ops []uint16, operands []Value, opsOK []bool) (Value, bool) {
	p := &MultiProg{
		Code:        code,
		NumRegs:     numRegs,
		NumOperands: len(operands),
		Conds:       []Segment{{Start: 0, End: len(code), Result: 0, Ops: ops}},
	}
	results := make([]Value, 1)
	ok := make([]bool, 1)
	m.Exec(p, operands, opsOK, nil, results, ok)
	return results[0], ok[0]
}

func TestMachineBasicProgram(t *testing.T) {
	// (op0 + op1) == 12
	code := []Instr{
		{Kind: ISig, Dst: 0, A: 0},
		{Kind: ISig, Dst: 1, A: 1},
		{Kind: IPrim2, Op: ir.OpAdd, Dst: 0, A: 0, B: 1},
		{Kind: IConst, Dst: 1, Const: Make(12, 4, false)},
		{Kind: IPrim2, Op: ir.OpEq, Dst: 0, A: 0, B: 1},
	}
	var m FusedMachine
	v, ok := runSegment(&m, code, 2, []uint16{0, 1},
		[]Value{Make(5, 8, false), Make(7, 8, false)}, []bool{true, true})
	if !ok {
		t.Fatal("segment poisoned")
	}
	if !v.IsTrue() || v.Width != 1 {
		t.Fatalf("got %#v, want true/1-bit", v)
	}
}

func TestMachineJumps(t *testing.T) {
	// op0 ? 3 : 5 via conditional jumps.
	code := []Instr{
		{Kind: ISig, Dst: 0, A: 0},
		{Kind: IJumpIfFalse, A: 0, P0: 4},
		{Kind: IConst, Dst: 0, Const: Make(3, 3, false)},
		{Kind: IJump, P0: 5},
		{Kind: IConst, Dst: 0, Const: Make(5, 3, false)},
	}
	var m FusedMachine
	for _, c := range []struct {
		in   Value
		want uint64
	}{{Make(1, 1, false), 3}, {Make(0, 1, false), 5}} {
		v, ok := runSegment(&m, code, 1, []uint16{0}, []Value{c.in}, []bool{true})
		if !ok {
			t.Fatal("segment poisoned")
		}
		if v.Bits != c.want {
			t.Fatalf("cond=%v: got %d, want %d", c.in.Bits, v.Bits, c.want)
		}
	}
}

// TestMachineShortOperands: an operand whose fetch failed is never
// read — the segment reports unsound and its result is left as it was.
func TestMachineShortOperands(t *testing.T) {
	code := []Instr{{Kind: ISig, Dst: 0, A: 0}}
	var m FusedMachine
	if v, ok := runSegment(&m, code, 1, []uint16{0}, []Value{Make(9, 4, false)}, []bool{false}); ok || v != (Value{}) {
		t.Fatalf("unfetched operand read: %#v ok=%v", v, ok)
	}
}

// TestMachineReuseGrowsRegisters checks a machine can execute programs
// of different register pressure back to back.
func TestMachineReuseGrowsRegisters(t *testing.T) {
	small := []Instr{{Kind: IConst, Dst: 0, Const: Make(1, 1, false)}}
	big := []Instr{
		{Kind: IConst, Dst: 7, Const: Make(9, 4, false)},
		{Kind: IMov, Dst: 0, A: 7},
	}
	var m FusedMachine
	if v, ok := runSegment(&m, small, 1, nil, nil, nil); !ok || v.Bits != 1 {
		t.Fatalf("small: %v %#v", ok, v)
	}
	if v, ok := runSegment(&m, big, 8, nil, nil, nil); !ok || v.Bits != 9 {
		t.Fatalf("big: %v %#v", ok, v)
	}
	if v, ok := runSegment(&m, small, 1, nil, nil, nil); !ok || v.Bits != 1 {
		t.Fatalf("small again: %v %#v", ok, v)
	}
}
