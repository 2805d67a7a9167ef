package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// oneNode builds the Low-form circuit P: inputs i0, i1, … of types ts,
// an optional memory, and the node n = e.
func oneNode(ts []ir.Ground, mem *ir.DefMem, e ir.Expr) *ir.Circuit {
	m := &ir.Module{Name: "P", Ports: []ir.Port{{Name: "clock", Dir: ir.Input, Tpe: ir.ClockType()}}}
	for i, t := range ts {
		m.Ports = append(m.Ports, ir.Port{Name: fmt.Sprintf("i%d", i), Dir: ir.Input, Tpe: t})
	}
	if mem != nil {
		m.Body = append(m.Body, mem)
	}
	m.Body = append(m.Body, &ir.DefNode{Name: "n", Value: e})
	return &ir.Circuit{Main: "P", Modules: []*ir.Module{m}}
}

func inputRefs(n int) []ir.Expr {
	refs := make([]ir.Expr, n)
	for i := range refs {
		refs[i] = ir.Ref{Name: fmt.Sprintf("i%d", i)}
	}
	return refs
}

// show renders a value's bits, width and signedness (eval.Value's
// String prints only the number).
func show(v eval.Value) string {
	return fmt.Sprintf("{bits %#x width %d signed %v}", v.Bits, v.Width, v.Signed)
}

func zeroOf(t ir.Ground) eval.Value { return eval.Make(0, t.Width, t.Kind == ir.SInt) }

// settleNode pokes the inputs with vals, settles, and returns n.
func settleNode(t testing.TB, s *sim.Simulator, vals []uint64) eval.Value {
	t.Helper()
	for i, v := range vals {
		if err := s.Poke(fmt.Sprintf("P.i%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	s.Settle()
	got, err := s.Peek("P.n")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// elaboratePrim elaborates n = op(params)(i0, …) over operand types ts.
// Where eval.Prim rejects the operand types, Elaborate must reject the
// circuit too (and s is nil); where it accepts them, so must Elaborate.
func elaboratePrim(t testing.TB, op ir.PrimOp, params []int, ts []ir.Ground) *sim.Simulator {
	t.Helper()
	zeros := make([]eval.Value, len(ts))
	for i, tp := range ts {
		zeros[i] = zeroOf(tp)
	}
	_, evalErr := eval.Prim(op, params, zeros)
	nl, err := rtl.Elaborate(oneNode(ts, nil, ir.NewPrimP(op, params, inputRefs(len(ts))...)))
	switch {
	case evalErr != nil && err == nil:
		t.Fatalf("%s%v over %v: eval.Prim rejects (%v), Elaborate accepts", op, params, ts, evalErr)
	case evalErr == nil && err != nil:
		t.Fatalf("%s%v over %v: Elaborate rejects: %v", op, params, ts, err)
	case err != nil:
		return nil
	}
	return sim.New(nl)
}

// checkPrim requires the settled node to equal eval.Prim on the same
// operand values: bits, width and signedness.
func checkPrim(t testing.TB, s *sim.Simulator, op ir.PrimOp, params []int, ts []ir.Ground, vals []uint64) {
	t.Helper()
	args := make([]eval.Value, len(ts))
	for i, tp := range ts {
		args[i] = eval.Make(vals[i], tp.Width, tp.Kind == ir.SInt)
	}
	want, err := eval.Prim(op, params, args)
	if err != nil {
		t.Fatalf("%s%v%v: %v", op, params, args, err)
	}
	if got := settleNode(t, s, vals); got != want {
		t.Fatalf("%s%v%v = %s, eval.Prim %s", op, params, args, show(got), show(want))
	}
}

func checkMux(t testing.TB, ts [3]ir.Ground, vals []uint64) {
	t.Helper()
	nl, err := rtl.Elaborate(oneNode(ts[:], nil, ir.Mux{Cond: ir.Ref{Name: "i0"}, T: ir.Ref{Name: "i1"}, F: ir.Ref{Name: "i2"}}))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(nl)
	for c := 0; c+2 < len(vals); c += 3 {
		v := vals[c : c+3]
		want := eval.Mux(eval.Make(v[0], ts[0].Width, ts[0].Kind == ir.SInt),
			eval.Make(v[1], ts[1].Width, ts[1].Kind == ir.SInt), eval.Make(v[2], ts[2].Width, ts[2].Kind == ir.SInt))
		if got := settleNode(t, s, v); got != want {
			t.Fatalf("mux over %v of %#x = %s, eval.Mux %s", ts, v, show(got), show(want))
		}
	}
}

// checkMemRead fills an 8-word memory of width memW with seeded words
// and requires n = m[i0] to read the word (0 past the depth) as the
// memory's unsigned type, for every address in addrs.
func checkMemRead(t testing.TB, memW int, at ir.Ground, addrs []uint64, seed int64) {
	t.Helper()
	const depth = 8
	mem := &ir.DefMem{Name: "m", Tpe: ir.UIntType(memW), Depth: depth}
	nl, err := rtl.Elaborate(oneNode([]ir.Ground{at}, mem, ir.MemRead{Mem: "m", Addr: ir.Ref{Name: "i0"}}))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(nl)
	rng := rand.New(rand.NewSource(seed))
	var words [depth]uint64
	for i := range words {
		words[i] = rng.Uint64() & eval.Mask(memW)
		if err := s.WriteMem("P.m", uint64(i), words[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range addrs {
		a &= eval.Mask(at.Width)
		want := eval.Make(0, memW, false)
		if a < depth {
			want.Bits = words[a]
		}
		if got := settleNode(t, s, []uint64{a}); got != want {
			t.Fatalf("m[%d] (width %d, address %s) = %s, want %s", a, memW, at, show(got), show(want))
		}
	}
}

var (
	primWidths = []int{1, 2, 7, 31, 32, 33, 63, 64}
	unaryOps   = []ir.PrimOp{ir.OpNot, ir.OpNeg, ir.OpShl, ir.OpShr, ir.OpBits, ir.OpHead, ir.OpTail,
		ir.OpAndR, ir.OpOrR, ir.OpXorR, ir.OpPad, ir.OpAsUInt, ir.OpAsSInt}
	binaryOps = []ir.PrimOp{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpLt, ir.OpLeq, ir.OpGt,
		ir.OpGeq, ir.OpEq, ir.OpNeq, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpDshl, ir.OpDshr, ir.OpCat}
)

// operandTypes is every operand type of the sweep: each width unsigned
// and signed.
func operandTypes() []ir.Ground {
	var ts []ir.Ground
	for _, w := range primWidths {
		ts = append(ts, ir.UIntType(w), ir.SIntType(w))
	}
	return ts
}

// operandValues is 0, 1, all-ones, the sign bit and a seeded random
// value of a type.
func operandValues(rng *rand.Rand, t ir.Ground) []uint64 {
	return []uint64{0, 1, eval.Mask(t.Width), 1 << (t.Width - 1), rng.Uint64() & eval.Mask(t.Width)}
}

// unaryParams are the static parameter sets each unary op is checked
// with on an operand of width w; some are rejected on purpose (a shl
// or bits out of range).
func unaryParams(op ir.PrimOp, w int) [][]int {
	switch op {
	case ir.OpShl:
		return [][]int{{0}, {1}, {7}, {33}, {63}}
	case ir.OpShr:
		return [][]int{{0}, {1}, {w - 1}, {w}, {w + 1}, {70}}
	case ir.OpBits:
		return [][]int{{0, 0}, {w - 1, 0}, {w - 1, w - 1}, {w / 2, w / 4}, {w, 0}}
	case ir.OpHead:
		return [][]int{{1}, {w/2 + 1}, {w}}
	case ir.OpTail:
		return [][]int{{0}, {1}, {w - 1}, {w}}
	case ir.OpPad:
		return [][]int{{0}, {1}, {w + 1}, {64}, {70}}
	}
	return [][]int{nil}
}

// TestPrimMatchesEval is the per-op differential of the flat program:
// for every primitive op, mux and memory read, a one-node circuit over
// operands of every width in primWidths, unsigned and signed (mixed
// pairs included), settles to exactly what eval.Prim, eval.Mux or the
// memory word gives on 0, 1, all-ones, the sign bit and a random value
// — bits, width and signedness, results wider than 64 bits included.
// What eval.Prim rejects, Elaborate rejects.
func TestPrimMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := operandTypes()
	for _, op := range unaryOps {
		t.Run(op.String(), func(t *testing.T) {
			for _, ta := range types {
				for _, params := range unaryParams(op, ta.Width) {
					ts := []ir.Ground{ta}
					s := elaboratePrim(t, op, params, ts)
					if s == nil {
						continue
					}
					for _, av := range operandValues(rng, ta) {
						checkPrim(t, s, op, params, ts, []uint64{av})
					}
				}
			}
		})
	}
	for _, op := range binaryOps {
		t.Run(op.String(), func(t *testing.T) {
			for _, ta := range types {
				for _, tb := range types {
					ts := []ir.Ground{ta, tb}
					s := elaboratePrim(t, op, nil, ts)
					if s == nil {
						continue
					}
					for _, av := range operandValues(rng, ta) {
						for _, bv := range operandValues(rng, tb) {
							checkPrim(t, s, op, nil, ts, []uint64{av, bv})
						}
					}
				}
			}
		})
	}
	t.Run("mux", func(t *testing.T) {
		for _, tc := range []ir.Ground{ir.UIntType(1), ir.SIntType(7)} {
			for _, tt := range types {
				for _, tf := range types {
					var vals []uint64
					for _, c := range []uint64{0, 1} {
						for _, tv := range operandValues(rng, tt) {
							for _, fv := range operandValues(rng, tf) {
								vals = append(vals, c, tv, fv)
							}
						}
					}
					checkMux(t, [3]ir.Ground{tc, tt, tf}, vals)
				}
			}
		}
	})
	t.Run("memread", func(t *testing.T) {
		for _, memW := range primWidths {
			for _, ta := range types {
				addrs := append(operandValues(rng, ta), 2, 7, 8)
				checkMemRead(t, memW, ta, addrs, int64(memW))
			}
		}
	})
}

// FuzzSimPrim checks TestPrimMatchesEval's property on fuzz-chosen
// one-node circuits: an op (every primitive, then mux and memory
// read), operand widths 1 to 64 with fuzz-chosen signedness, static
// parameters 0 to 80 and operand values.
func FuzzSimPrim(f *testing.F) {
	f.Add(uint8(ir.OpAdd), uint8(63), uint8(63), uint8(0), uint8(3), uint8(0), uint8(0), uint64(1)<<63, uint64(1)<<63, uint64(0))
	f.Add(uint8(ir.OpShl), uint8(9), uint8(0), uint8(0), uint8(0), uint8(60), uint8(0), uint64(1023), uint64(0), uint64(0))
	f.Add(uint8(ir.OpDshl), uint8(31), uint8(62), uint8(0), uint8(1), uint8(0), uint8(0), uint64(5), uint64(3), uint64(0))
	f.Add(uint8(ir.OpAsSInt+1), uint8(0), uint8(7), uint8(6), uint8(6), uint8(0), uint8(0), uint64(1), uint64(0x80), uint64(0x7f))
	f.Add(uint8(ir.OpAsSInt+2), uint8(15), uint8(3), uint8(0), uint8(1), uint8(0), uint8(0), uint64(3), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, opb, wa, wb, wc, signs, p0, p1 uint8, av, bv, cv uint64) {
		tp := func(w uint8, bit uint) ir.Ground {
			g := ir.Ground{Kind: ir.UInt, Width: 1 + int(w%64)}
			if signs>>bit&1 != 0 {
				g.Kind = ir.SInt
			}
			return g
		}
		ts := []ir.Ground{tp(wa, 0), tp(wb, 1), tp(wc, 2)}
		vals := []uint64{av & eval.Mask(ts[0].Width), bv & eval.Mask(ts[1].Width), cv & eval.Mask(ts[2].Width)}
		switch op := ir.PrimOp(opb % uint8(ir.OpAsSInt+3)); {
		case op == ir.OpAsSInt+1:
			checkMux(t, [3]ir.Ground(ts), vals)
		case op == ir.OpAsSInt+2:
			checkMemRead(t, ts[1].Width, ts[0], vals[:1], int64(cv))
		default:
			params := map[ir.PrimOp][]int{
				ir.OpShl: {int(p0 % 81)}, ir.OpShr: {int(p0 % 81)}, ir.OpHead: {int(p0 % 81)},
				ir.OpTail: {int(p0 % 81)}, ir.OpPad: {int(p0 % 81)}, ir.OpBits: {int(p0 % 81), int(p1 % 81)},
			}[op]
			n := 2
			for _, u := range unaryOps {
				if op == u {
					n = 1
				}
			}
			if s := elaboratePrim(t, op, params, ts[:n]); s != nil {
				checkPrim(t, s, op, params, ts[:n], vals[:n])
			}
		}
	})
}
