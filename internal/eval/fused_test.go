package eval

import (
	"testing"

	"repro/internal/ir"
)

// fusedFixture hand-builds a small fused program, independent of the
// expr fuser, over three 8-bit inputs:
//
//	prelude: s = op0 + op1
//	cond 0:  s == 12
//	cond 1:  s != op2
//	cond 2:  op2 == 3   (independent of the prelude)
func fusedFixture(t *testing.T) *MultiProg {
	u8 := Make(0, 8, false)
	b := newBuilder(3)
	s := b.prim(t, ir.OpAdd, b.input(0, u8), b.input(1, u8))
	p := &MultiProg{Prelude: len(b.code)}
	for _, cond := range []func() Operand{
		func() Operand { return b.prim(t, ir.OpEq, s, b.lit(Make(12, 8, false))) },
		func() Operand { return b.prim(t, ir.OpNeq, s, b.input(2, u8)) },
		func() Operand { return b.prim(t, ir.OpEq, b.input(2, u8), b.lit(Make(3, 8, false))) },
	} {
		start := len(b.code)
		r := cond()
		p.Conds = append(p.Conds, Segment{Start: start, End: len(b.code), Result: r.Slot, Type: r.T})
	}
	p.Code, p.Init = b.code, b.init
	return p
}

func fixturePlane(p *MultiProg, inputs ...uint64) []uint64 {
	plane := append([]uint64(nil), p.Init...)
	copy(plane, inputs)
	return plane
}

func TestFusedProgramValues(t *testing.T) {
	p := fusedFixture(t)
	plane := fixturePlane(p, 5, 7, 3)
	p.Exec(plane, nil)
	for ci, want := range []uint64{1, 1, 1} {
		if got := plane[p.Conds[ci].Result]; got != want {
			t.Fatalf("cond %d = %d, want %d", ci, got, want)
		}
	}
	plane = fixturePlane(p, 5, 8, 13)
	p.Exec(plane, nil)
	for ci, want := range []uint64{0, 0, 0} {
		if got := plane[p.Conds[ci].Result]; got != want {
			t.Fatalf("second run: cond %d = %d, want %d", ci, got, want)
		}
	}
}

// TestFusedSkipBitmapUntouched: a skipped condition's private range does
// not run, so its result slot keeps what it held; the prelude and the
// other conditions still run, on both sides of it.
func TestFusedSkipBitmapUntouched(t *testing.T) {
	p := fusedFixture(t)
	const sentinel = 0xdead
	for skipped := range p.Conds {
		plane := fixturePlane(p, 5, 7, 3)
		plane[p.Conds[skipped].Result] = sentinel
		p.Exec(plane, []uint64{1 << uint(skipped)})
		for ci, c := range p.Conds {
			want := uint64(1)
			if ci == skipped {
				want = sentinel
			}
			if got := plane[c.Result]; got != want {
				t.Fatalf("skip %d: cond %d = %#x, want %#x", skipped, ci, got, want)
			}
		}
	}
}

func TestFusedExecZeroAllocs(t *testing.T) {
	p := fusedFixture(t)
	plane := fixturePlane(p, 5, 7, 3)
	skip := []uint64{0b010}
	if allocs := testing.AllocsPerRun(100, func() { p.Exec(plane, skip) }); allocs != 0 {
		t.Fatalf("fused exec allocates %.1f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { Exec(p.Code, plane, nil) }); allocs != 0 {
		t.Fatalf("Exec allocates %.1f objects per run, want 0", allocs)
	}
}
