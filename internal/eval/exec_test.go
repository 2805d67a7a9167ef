package eval

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// builder lowers hand-written word programs for the tests: a plane of
// inputs, then constants and temporaries.
type builder struct {
	init []uint64
	code []Instr
}

func newBuilder(inputs int) *builder { return &builder{init: make([]uint64, inputs)} }

func (b *builder) constant(bits uint64) int32 {
	b.init = append(b.init, bits)
	return int32(len(b.init) - 1)
}

// input is plane slot i, of type t.
func (b *builder) input(i int, t Value) Operand { return Operand{Slot: int32(i), T: t} }

func (b *builder) lit(v Value) Operand {
	return Operand{Slot: b.constant(v.Bits), T: Make(0, v.Width, v.Signed)}
}

func (b *builder) emit(in Instr, res Value) Operand {
	in.Dst = b.constant(0)
	b.code = append(b.code, in)
	return Operand{Slot: in.Dst, T: res}
}

func (b *builder) prim(t *testing.T, op ir.PrimOp, args ...Operand) Operand {
	t.Helper()
	in, res, err := LowerPrim(op, nil, args, b.constant)
	if err != nil {
		t.Fatalf("LowerPrim(%s): %v", op, err)
	}
	return b.emit(in, res)
}

// run executes the program over a fresh plane with the given inputs.
func (b *builder) run(inputs ...uint64) []uint64 {
	plane := append([]uint64(nil), b.init...)
	copy(plane, inputs)
	Exec(b.code, plane, nil)
	return plane
}

func TestMachineBasicProgram(t *testing.T) {
	// (op0 + op1) == 12 over two 8-bit inputs.
	u8 := Make(0, 8, false)
	b := newBuilder(2)
	sum := b.prim(t, ir.OpAdd, b.input(0, u8), b.input(1, u8))
	if sum.T != Make(0, 9, false) {
		t.Fatalf("sum typed %+v, want 9-bit unsigned", sum.T)
	}
	eq := b.prim(t, ir.OpEq, sum, b.lit(Make(12, 4, false)))
	for _, c := range []struct{ a, b, want uint64 }{{5, 7, 1}, {5, 8, 0}, {255, 13, 0}} {
		plane := b.run(c.a, c.b)
		if got := plane[eq.Slot]; got != c.want {
			t.Fatalf("(%d + %d) == 12: got %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// 255 + 13 keeps its carry at 9 bits.
	if plane := b.run(255, 13); plane[sum.Slot] != 268 {
		t.Fatalf("255 + 13 = %d at 9 bits", plane[sum.Slot])
	}
}

// TestMachineMux: a select is one OpMux over both arms, with no branch.
func TestMachineMux(t *testing.T) {
	// op0 ? 3 : 5, both arms 3-bit unsigned.
	b := newBuilder(1)
	in, res := LowerMux(b.input(0, Make(0, 1, false)), b.lit(Make(3, 3, false)), b.lit(Make(5, 3, false)))
	sel := b.emit(in, res)
	if res != Make(0, 3, false) {
		t.Fatalf("mux typed %+v", res)
	}
	for _, c := range []struct{ cond, want uint64 }{{1, 3}, {0, 5}} {
		if got := b.run(c.cond)[sel.Slot]; got != c.want {
			t.Fatalf("cond=%d: got %d, want %d", c.cond, got, c.want)
		}
	}
}

// TestOpReads pins Op.Reads against Exec: an operand slot past an
// opcode's count never changes its result, and each slot within it
// does for some plane.
func TestOpReads(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	draw := func() uint64 {
		if r.Intn(2) == 0 {
			return uint64(r.Intn(4))
		}
		return r.Uint64() >> uint(r.Intn(64))
	}
	mems := [][]uint64{{10, 11, 12, 13}}
	for op := OpMask; op <= OpMemRead; op++ {
		in := Instr{Op: op, Imm: 3, Dst: 0, A: 1, B: 2, C: 3, Mask: ^uint64(0)}
		if op == OpMemRead {
			in.Imm = 0
		}
		run := func(plane []uint64) uint64 {
			p := append([]uint64(nil), plane...)
			Exec([]Instr{in}, p, mems)
			return p[0]
		}
		var moved [3]bool
		for trial := 0; trial < 500; trial++ {
			plane := []uint64{0, draw(), draw(), draw()}
			base := run(plane)
			for k := 0; k < 3; k++ {
				p := append([]uint64(nil), plane...)
				p[1+k] = draw()
				if run(p) == base {
					continue
				}
				if k >= op.Reads() {
					t.Fatalf("op %d: slot %c moves the result but Reads is %d", op, 'A'+k, op.Reads())
				}
				moved[k] = true
			}
		}
		for k := 0; k < op.Reads(); k++ {
			if !moved[k] {
				t.Errorf("op %d: Reads is %d but slot %c never moved the result", op, op.Reads(), 'A'+k)
			}
		}
	}
}
