package eval

import (
	"testing"

	"repro/internal/ir"
)

// fusedFixture hand-builds a small fused program, independent of the
// expr fuser:
//
//	shared 0: s = op0 + op1
//	cond 0:   s == 12
//	cond 1:   s != op2
//	cond 2:   op2 == 3   (independent of the shared segment)
func fusedFixture() *MultiProg {
	return &MultiProg{
		Code: []Instr{
			// shared segment 0 at scratch register 1, moved into shared
			// register 0
			{Kind: ISig, Dst: 1, A: 0},
			{Kind: ISig, Dst: 2, A: 1},
			{Kind: IPrim2, Op: ir.OpAdd, Dst: 1, A: 1, B: 2},
			{Kind: IMov, Dst: 0, A: 1},
			// cond 0
			{Kind: IConst, Dst: 1, Const: Make(12, 8, false)},
			{Kind: IPrim2, Op: ir.OpEq, Dst: 1, A: 0, B: 1},
			// cond 1
			{Kind: ISig, Dst: 1, A: 2},
			{Kind: IPrim2, Op: ir.OpNeq, Dst: 1, A: 0, B: 1},
			// cond 2
			{Kind: ISig, Dst: 1, A: 2},
			{Kind: IConst, Dst: 2, Const: Make(3, 8, false)},
			{Kind: IPrim2, Op: ir.OpEq, Dst: 1, A: 1, B: 2},
		},
		NumRegs:     3,
		NumShared:   1,
		NumOperands: 3,
		Shared: []Segment{
			{Start: 0, End: 4, Result: 0, Ops: []uint16{0, 1}},
		},
		Conds: []Segment{
			{Start: 4, End: 6, Result: 1, Deps: []uint16{0}},
			{Start: 6, End: 8, Result: 1, Ops: []uint16{2}, Deps: []uint16{0}},
			{Start: 8, End: 11, Result: 1, Ops: []uint16{2}},
		},
	}
}

func runFixture(m *FusedMachine, p *MultiProg, operands []Value, opsOK []bool, skip []uint64) ([]Value, []bool) {
	results := make([]Value, len(p.Conds))
	resultOK := make([]bool, len(p.Conds))
	m.Exec(p, operands, opsOK, skip, results, resultOK)
	return results, resultOK
}

func TestFusedProgramValues(t *testing.T) {
	p := fusedFixture()
	ops := []Value{Make(5, 8, false), Make(7, 8, false), Make(3, 8, false)}
	var m FusedMachine
	results, ok := runFixture(&m, p, ops, []bool{true, true, true}, nil)
	want := []bool{true, true, true} // 12==12, 12!=3, 3==3
	for i := range want {
		if !ok[i] {
			t.Fatalf("cond %d not ok", i)
		}
		if results[i].IsTrue() != want[i] {
			t.Fatalf("cond %d = %v, want %v", i, results[i].IsTrue(), want[i])
		}
	}
}

// TestFusedPoisonIsolation: a failed operand poisons the shared segment
// reading it and, transitively, the conditions depending on that shared
// register — while an independent condition stays sound. The poisoned
// run follows a sound one on the same machine: the shared register
// still holds the earlier edge's value, so the machine must not carry
// that edge's soundness over either.
func TestFusedPoisonIsolation(t *testing.T) {
	p := fusedFixture()
	var m FusedMachine
	sound := []Value{Make(5, 8, false), Make(7, 8, false), Make(3, 8, false)}
	if _, ok := runFixture(&m, p, sound, []bool{true, true, true}, nil); !ok[0] || !ok[1] || !ok[2] {
		t.Fatalf("sound run reported poison: %v", ok)
	}
	ops := []Value{{}, Make(7, 8, false), Make(3, 8, false)}
	_, ok := runFixture(&m, p, ops, []bool{false, true, true}, nil)
	if ok[0] || ok[1] {
		t.Fatalf("conds reading the poisoned shared segment reported ok: %v", ok)
	}
	if !ok[2] {
		t.Fatal("independent cond poisoned")
	}
}

// TestFusedSkipBitmapUntouched: a masked condition must not execute and
// must leave its result entries exactly as the caller set them.
func TestFusedSkipBitmapUntouched(t *testing.T) {
	p := fusedFixture()
	ops := []Value{Make(5, 8, false), Make(7, 8, false), Make(3, 8, false)}
	var m FusedMachine
	results, ok := runFixture(&m, p, ops, []bool{true, true, true}, []uint64{0b010})
	if ok[1] {
		t.Fatal("masked cond executed")
	}
	if (results[1] != Value{}) {
		t.Fatalf("masked cond wrote a result: %#v", results[1])
	}
	if !ok[0] || !ok[2] {
		t.Fatalf("unmasked conds not evaluated: %v", ok)
	}
}

// TestFusedExecZeroAllocs is the hot-loop guard: steady-state fused
// execution — prelude plus every condition segment, with a skip bitmap
// present — must not allocate.
func TestFusedExecZeroAllocs(t *testing.T) {
	p := fusedFixture()
	ops := []Value{Make(5, 8, false), Make(7, 8, false), Make(3, 8, false)}
	opsOK := []bool{true, true, true}
	skip := []uint64{0b100}
	var m FusedMachine
	results := make([]Value, len(p.Conds))
	resultOK := make([]bool, len(p.Conds))
	// Warm the register file outside the measured runs.
	m.Exec(p, ops, opsOK, skip, results, resultOK)
	allocs := testing.AllocsPerRun(200, func() {
		m.Exec(p, ops, opsOK, skip, results, resultOK)
	})
	if allocs != 0 {
		t.Fatalf("fused execution allocates %.1f per edge, want 0", allocs)
	}
}
