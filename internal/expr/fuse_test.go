package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/val"
)

// slotTypes returns the zero Values of slotVals' types: the union
// types a backend's Resolve reports.
func slotTypes(slotVals []eval.Value) []eval.Value {
	types := make([]eval.Value, len(slotVals))
	for i, v := range slotVals {
		types[i] = eval.Make(0, v.Width, v.Signed)
	}
	return types
}

// fuseRun runs a fused schedule once over per-slot values and returns,
// for every input condition, its fused value and whether it was fused
// and run. skip parks fused ids as the scheduler does (nil parks none).
func fuseRun(fs *FusedSchedule, slotVals []eval.Value, skip []uint64) (results []eval.Value, fused []bool) {
	plane := append([]uint64(nil), fs.Prog.Init...)
	for s, v := range slotVals {
		plane[s] = v.Bits
	}
	fs.Prog.Exec(plane, skip)
	results = make([]eval.Value, len(fs.IDs))
	fused = make([]bool, len(fs.IDs))
	for k, ci := range fs.IDs {
		if ci < 0 || (skip != nil && skip[ci>>6]&(1<<(uint(ci)&63)) != 0) {
			continue
		}
		c := fs.Prog.Conds[ci]
		results[k] = eval.Make(plane[c.Result], c.Type.Width, c.Type.Signed)
		fused[k] = true
	}
	return results, fused
}

// slotEnv exposes per-slot values to EvalBits under one condition's
// name → slot mapping. Values lift through ToBits, sign included, so
// the oracle sees exactly the operands the fused program reads.
func slotEnv(slotOf map[string]int, slotVals []eval.Value) BitsResolver {
	return BitsResolverFunc(func(name string) (val.Bits, error) {
		s, ok := slotOf[name]
		if !ok {
			return val.Bits{}, fmt.Errorf("unknown name %q", name)
		}
		return slotVals[s].ToBits(), nil
	})
}

// refCond is the fuser's oracle: EvalBits over the enable and
// user-condition trees, combined the way the debugger combines them —
// the user condition runs only once the enable holds, a falsy enable
// value is itself the result, and a condition with neither is the
// constant 1.
func refCond(enable, cond Node, env BitsResolver) (val.Bits, error) {
	if enable != nil {
		e, err := EvalBits(enable, env)
		if err != nil || cond == nil || e.Truth() != val.True {
			return e, err
		}
	}
	if cond != nil {
		return EvalBits(cond, env)
	}
	return val.FromUint64(1, 1), nil
}

// checkFused compares one fused result with the oracle's. A condition
// with both an enable and a user condition is a breakpoint, whose
// fused result is its 1-bit truth: it must match the oracle's truth.
// Any other result — a watch value, a lone enable — must match by
// value, width and sign. The fused program reads no slot that failed,
// so an oracle error is a failure.
func checkFused(got eval.Value, want val.Bits, errW error, byTruth bool) error {
	if errW != nil {
		return fmt.Errorf("EvalBits errs (%v) where the fused program computed %v", errW, got)
	}
	g := got.ToBits()
	if byTruth {
		if g.Width != 1 || g.Truth() != want.Truth() {
			return fmt.Errorf("fused truth %s (width %d), EvalBits %s", g, g.Width, want)
		}
		return nil
	}
	if !g.CaseEq(want) || g.Width != want.Width || g.Signed != want.Signed {
		return fmt.Errorf("fused %s (width %d, signed %v), EvalBits %s (width %d, signed %v)",
			g, g.Width, g.Signed, want, want.Width, want.Signed)
	}
	return nil
}

// compileCond builds a FusedCondition from optional enable/cond ASTs
// and a per-condition name → global slot mapping.
func compileCond(t testing.TB, enable, cond Node, slotOf map[string]int) FusedCondition {
	t.Helper()
	var fc FusedCondition
	mk := func(n Node) (*Program, []int) {
		p := newProgram(n)
		slots := make([]int, len(p.Deps))
		for i, d := range p.Deps {
			slots[i] = slotOf[d]
		}
		return p, slots
	}
	if enable != nil {
		fc.Enable, fc.EnableSlots = mk(enable)
	}
	if cond != nil {
		fc.Cond, fc.CondSlots = mk(cond)
	}
	return fc
}

// fuseRejects reports whether Fuse routes src, read as a value with
// every name an 8-bit slot, to EvalBits.
func fuseRejects(src string) bool {
	p := newProgram(MustParse(src))
	slots := make([]int, len(p.Deps))
	types := make([]eval.Value, len(p.Deps))
	for i := range slots {
		slots[i], types[i] = i, eval.Make(0, 8, false)
	}
	return Fuse([]FusedCondition{{Cond: p, CondSlots: slots}}, types).IDs[0] < 0
}

// folded returns the tree the fuser saw (nil stays nil).
func folded(p *Program) Node {
	if p == nil {
		return nil
	}
	return p.Folded
}

// rejectShapes are condition shapes the fuser must route to EvalBits,
// one per fuse-time rejection rule: ?: arms of different types whose
// value is observed, a result wider than 64 bits (64-bit +, -, *,
// unary - and signed /), a slice wider than 64 bits, a signed
// division, remainder or ordering whose second operand is 64-bit
// unsigned, and a literal with x/z bits or wider than 64 bits.
var rejectShapes = []struct {
	class string
	gen   func(r *rand.Rand, names []string) Node
}{
	{"?: arm types", func(r *rand.Rand, names []string) Node {
		return unaryNode{op: "~", x: mixedTernary(r, names)}
	}},
	{"64-bit +", func(r *rand.Rand, names []string) Node {
		return binNode{op: "+", a: wide64(r, names), b: randNode(r, names, 1)}
	}},
	{"64-bit -", func(r *rand.Rand, names []string) Node {
		return binNode{op: "-", a: randNode(r, names, 1), b: wide64(r, names)}
	}},
	{"64-bit *", func(r *rand.Rand, names []string) Node {
		return binNode{op: "*", a: pickName(r, names), b: wide64(r, names)}
	}},
	{"64-bit unary -", func(r *rand.Rand, names []string) Node {
		return unaryNode{op: "-", x: wide64(r, names)}
	}},
	{"64-bit signed /", func(r *rand.Rand, names []string) Node {
		// -(x[62:0]) is a 64-bit signed value.
		neg := unaryNode{op: "-", x: bitsNode{x: pickName(r, names), hi: 62, lo: 0}}
		return binNode{op: "/", a: neg, b: randNode(r, names, 1)}
	}},
	{"slice > 64 bits", func(r *rand.Rand, names []string) Node {
		lo := r.Intn(4)
		return bitsNode{x: pickName(r, names), hi: lo + 64 + r.Intn(6), lo: lo}
	}},
	{"signed op, u64", func(r *rand.Rand, names []string) Node {
		// -(x[k:0]) is signed and at most 9 bits wide.
		ops := []string{"/", "%", "<", "<=", ">", ">="}
		neg := unaryNode{op: "-", x: bitsNode{x: pickName(r, names), hi: r.Intn(8), lo: 0}}
		return binNode{op: ops[r.Intn(len(ops))], a: neg, b: wide64(r, names)}
	}},
	{"four-state or wide literal", func(r *rand.Rand, names []string) Node {
		// At least one x/z bit in 1 to 8 bits, or a known 65- to 128-bit
		// value.
		lit := val.FromPlanes([]uint64{r.Uint64()}, []uint64{r.Uint64() | 1}, 1+r.Intn(8))
		if r.Intn(2) == 0 {
			lit = val.FromWords([]uint64{r.Uint64(), r.Uint64()}, 65+r.Intn(64))
		}
		ops := []string{"==", "!=", "===", "&", "|", "+", "<"}
		return binNode{op: ops[r.Intn(len(ops))], a: pickName(r, names), b: xnumNode{b: lit}}
	}},
}

func pickName(r *rand.Rand, names []string) Node { return nameNode{name: names[r.Intn(len(names))]} }

// mixedTernary is `sel ? x[4:0] : k`, k a literal 1 to 3 bits wide: a
// ?: whose arms differ in type.
func mixedTernary(r *rand.Rand, names []string) Node {
	return ternaryNode{cond: pickName(r, names),
		t: bitsNode{x: pickName(r, names), hi: 4, lo: 0},
		f: numNode{v: eval.Make(r.Uint64(), 1+r.Intn(3), false)}}
}

// truthShape puts a mixedTernary in a truth place, where it must fuse:
// the root of a condition read by truth (truth is then set), the
// operand of !, or a side of && or ||.
func truthShape(r *rand.Rand, names []string) (n Node, truth bool) {
	m := mixedTernary(r, names)
	switch r.Intn(4) {
	case 0:
		return m, true
	case 1:
		return unaryNode{op: "!", x: m}, false
	case 2:
		return binNode{op: "&&", a: m, b: pickName(r, names)}, false
	}
	return binNode{op: "||", a: pickName(r, names), b: m}, false
}

// wide64 is a 64-bit unsigned value: a name or'ed with a 64-bit
// literal.
func wide64(r *rand.Rand, names []string) Node {
	return binNode{op: "|", a: pickName(r, names), b: numNode{v: eval.Make(r.Uint64(), 64, false)}}
}

// TestFuseDifferential pins the fuser against EvalBits over random
// condition sets. Each trial draws every union slot's type once
// (widths 1–64, signed and unsigned), as a backend's handles fix them,
// then draws values per environment, and after the first environment
// parks a random subset of the fused conditions. Every fused result
// that runs must match EvalBits of the original trees (see
// checkFused); a condition is read by truth when it has both an
// enable and a user condition, and at random otherwise. Conditions of
// a rejectShapes class must be routed to EvalBits, and the folded
// trees the debugger would then evaluate must match the original
// ones; a truthShape condition must fuse.
func TestFuseDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	names := []string{"a", "b", "c", "d"}
	const numSlots = 6
	sharedTotal, fusedTotal, truthFused := 0, 0, 0
	rejected := make([]int, len(rejectShapes))
	type orig struct {
		enable, cond Node
		slotOf       map[string]int
		shape        int  // index into rejectShapes, or -1
		mustFuse     bool // a truthShape
	}
	for trial := 0; trial < 300; trial++ {
		types := make([]eval.Value, numSlots)
		for s := range types {
			types[s] = eval.Make(0, 1+r.Intn(64), r.Intn(2) == 0)
		}
		k := 1 + r.Intn(10)
		conds := make([]FusedCondition, k)
		origs := make([]orig, k)
		for i := range conds {
			slotOf := map[string]int{}
			for _, n := range names {
				// Small slot pool so structurally equal conditions often
				// land on the same slots and sharing actually happens.
				slotOf[n] = r.Intn(numSlots)
			}
			var enable, cond Node
			if r.Intn(4) != 0 {
				enable = randNode(r, names, 3)
			}
			if r.Intn(2) == 0 {
				cond = randNode(r, names, 3)
			}
			shape, truth, mustFuse := -1, r.Intn(2) == 0, false
			switch r.Intn(6) {
			case 0, 1:
				shape = r.Intn(len(rejectShapes))
				if forced := rejectShapes[shape].gen(r, names); cond == nil || r.Intn(2) == 0 {
					cond = forced
				} else {
					enable = forced
				}
			case 2:
				enable, mustFuse = nil, true
				cond, truth = truthShape(r, names)
			}
			conds[i] = compileCond(t, enable, cond, slotOf)
			conds[i].Truth = truth
			origs[i] = orig{enable, cond, slotOf, shape, mustFuse}
		}
		fs := Fuse(conds, types)
		sharedTotal += fs.Stats.SharedSegs
		for ci, o := range origs {
			if o.mustFuse {
				if fs.IDs[ci] < 0 {
					t.Fatalf("trial %d cond %d (%v): a ?: in a truth place was not fused", trial, ci, o.cond)
				}
				truthFused++
			}
		}
		for env := 0; env < 3; env++ {
			slotVals := make([]eval.Value, numSlots)
			for s, ty := range types {
				slotVals[s] = eval.Make(r.Uint64(), ty.Width, ty.Signed)
			}
			var skip []uint64
			if env > 0 {
				skip = make([]uint64, (len(fs.Prog.Conds)+63)/64)
				for ci := range fs.Prog.Conds {
					if r.Intn(3) == 0 {
						skip[ci>>6] |= 1 << (uint(ci) & 63)
					}
				}
			}
			results, fused := fuseRun(fs, slotVals, skip)
			for ci, o := range origs {
				if fs.IDs[ci] >= 0 && !fused[ci] {
					continue // parked
				}
				names := slotEnv(o.slotOf, slotVals)
				want, errW := refCond(o.enable, o.cond, names)
				byTruth := conds[ci].Truth || (o.enable != nil && o.cond != nil)
				if !fused[ci] {
					// The debugger evaluates what the fuser routes away
					// with EvalBits over the folded trees.
					got, err := refCond(folded(conds[ci].Enable), folded(conds[ci].Cond), names)
					if err != nil || errW != nil {
						t.Fatalf("trial %d cond %d (%v / %v): EvalBits errs: %v / %v", trial, ci, o.enable, o.cond, err, errW)
					}
					if (byTruth && got.Truth() != want.Truth()) ||
						(!byTruth && (!got.CaseEq(want) || got.Width != want.Width || got.Signed != want.Signed)) {
						t.Fatalf("trial %d cond %d (%v / %v): folded %s, original %s", trial, ci, o.enable, o.cond, got, want)
					}
					if o.shape >= 0 && env == 0 {
						rejected[o.shape]++
					}
					continue
				}
				if o.shape >= 0 {
					t.Fatalf("trial %d cond %d (%v / %v): a %q shape was fused", trial, ci, o.enable, o.cond, rejectShapes[o.shape].class)
				}
				if env == 0 {
					fusedTotal++
				}
				if err := checkFused(results[ci], want, errW, byTruth); err != nil {
					t.Fatalf("trial %d cond %d (%v / %v): %v", trial, ci, o.enable, o.cond, err)
				}
			}
		}
	}
	if sharedTotal == 0 {
		t.Fatal("no prelude instruction across any trial; sharing never exercised")
	}
	for i, n := range rejected {
		t.Logf("%-16s %d conditions routed to EvalBits", rejectShapes[i].class, n)
		if n == 0 {
			t.Errorf("no %q condition was generated", rejectShapes[i].class)
		}
	}
	if truthFused == 0 {
		t.Error("no ?: with arms of different types in a truth place was generated")
	}
	t.Logf("%d conditions fused, %d of them a ?: with arms of different types in a truth place", fusedTotal, truthFused)
}

// FuzzFuse is the coverage-guided version of TestFuseDifferential: two
// fuzz-chosen condition sources over a shared slot pool, so common
// structure fuses, against EvalBits. The seed picks every slot's type
// once, then the values of each environment. The corpus seeds cover
// the interesting shapes: common enables, guarded sharing, ternaries,
// slices, and each fuse-time rejection.
func FuzzFuse(f *testing.F) {
	f.Add("(x + y) > 3", "(x + y) < 9", uint64(1))
	f.Add("a == 0 && (b << a) > 1", "a == 1 && (b << a) > 1", uint64(2))
	f.Add("en ? cnt == 5 : cnt == 9", "en && cnt[3:0] != 2", uint64(3))
	f.Add("a % b == 0", "a / b > 1", uint64(4))
	// Sized literals and case equality: two-state sized forms fuse;
	// Fuse rejects four-state / >64-bit literals, and they seed the
	// parser side of the corpus.
	f.Add("x === 16'hdead", "x !== 16'hbeef && x > 0", uint64(5))
	f.Add("a === 8'b1x0z", "a == 130'h3deadbeefcafebabe0123456789abcdef0", uint64(6))
	f.Add("-a < 0", "(a >> 1) + 1 == 0", uint64(7))
	// Fuse-time rejections: ?: arms of different types whose value is
	// observed, 64-bit arithmetic, a slice wider than 64 bits; the same
	// ?: fuses where only its truth is read (an odd seed reads the
	// second condition by truth).
	f.Add("a ? b[3:0] : b[7:0]", "(a | 64'h0) + 1 == 0", uint64(8))
	f.Add("~(a ? b : 3)", "a ? b : 3", uint64(11))
	f.Add("!(a ? b[3:0] : 0) || c", "c && (a ? b[3:0] : 0)", uint64(13))
	f.Add("-(a | 64'h0) < 0", "a[70:2] == b", uint64(9))
	f.Fuzz(func(t *testing.T, src1, src2 string, seed uint64) {
		if len(src1) > 256 || len(src2) > 256 {
			return
		}
		const numSlots = 4
		var conds []FusedCondition
		var nodes []Node
		slotOf := map[string]int{}
		for _, src := range []string{src1, src2} {
			n, err := Parse(src)
			if err != nil {
				return
			}
			p := newProgram(n)
			slots := make([]int, len(p.Deps))
			for i, d := range p.Deps {
				if _, seen := slotOf[d]; !seen {
					slotOf[d] = len(slotOf) % numSlots
				}
				slots[i] = slotOf[d]
			}
			conds = append(conds, FusedCondition{Enable: p, EnableSlots: slots, Truth: len(conds) == 1 && seed%2 == 1})
			nodes = append(nodes, n)
		}
		rng := seed
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		types := make([]eval.Value, numSlots)
		for s := range types {
			types[s] = eval.Make(0, 1+int(next()%64), next()%2 == 0)
		}
		fs := Fuse(conds, types)
		for env := 0; env < 2; env++ {
			slotVals := make([]eval.Value, numSlots)
			for s, ty := range types {
				slotVals[s] = eval.Make(next(), ty.Width, ty.Signed)
			}
			results, fused := fuseRun(fs, slotVals, nil)
			for ci, n := range nodes {
				if !fused[ci] {
					continue
				}
				want, errW := refCond(n, nil, slotEnv(slotOf, slotVals))
				if err := checkFused(results[ci], want, errW, conds[ci].Truth); err != nil {
					t.Fatalf("cond %d (%q/%q): %v", ci, src1, src2, err)
				}
			}
		}
	})
}

// TestFuseCSE checks sharing directly: identical structure over
// identical slots is computed once and read everywhere, sibling
// instances (same structure, different slots) share nothing, and a
// user condition repeated across statements is shared although each
// copy sits behind a different enable.
func TestFuseCSE(t *testing.T) {
	slotsA := map[string]int{"x": 0, "y": 1}
	types := []eval.Value{eval.Make(0, 8, false), eval.Make(0, 8, false), eval.Make(0, 8, false), eval.Make(0, 8, false)}
	enable := MustParse("(x + y) > 3")
	cond := MustParse("(x + y) < 9")
	same := []FusedCondition{
		compileCond(t, enable, nil, slotsA),
		compileCond(t, enable, cond, slotsA),
	}
	fs := Fuse(same, types)
	if fs.Stats.SharedSegs == 0 || fs.Stats.SharedReads < 2 {
		t.Fatalf("same-slot conditions should share: %+v", fs.Stats)
	}
	if fs.Stats.Operands != 2 {
		t.Fatalf("operands should dedup by slot: %+v", fs.Stats)
	}
	slotVals := []eval.Value{eval.Make(2, 8, false), eval.Make(5, 8, false)}
	results, fused := fuseRun(fs, slotVals, nil)
	// x+y = 7: enable true for both; second condition also wants < 9.
	if !fused[0] || !fused[1] || !results[0].IsTrue() || !results[1].IsTrue() {
		t.Fatalf("results = %v fused = %v", results, fused)
	}

	siblings := []FusedCondition{
		compileCond(t, enable, nil, map[string]int{"x": 0, "y": 1}),
		compileCond(t, enable, nil, map[string]int{"x": 2, "y": 3}),
	}
	if fs := Fuse(siblings, types); fs.Stats.SharedSegs != 0 {
		t.Fatalf("sibling instances over different slots must not share: %+v", fs.Stats)
	}

	// Four statements of one instance: distinct enables over slot 0,
	// one user condition over slot 1. Only the user condition is
	// common, and only behind each enable.
	user := MustParse("y % 13 == 7 && y[3:0] != 2")
	var stmts []FusedCondition
	for j := 0; j < 4; j++ {
		en := MustParse(fmt.Sprintf("x[%d]", j))
		stmts = append(stmts, compileCond(t, en, user, slotsA))
	}
	fs = Fuse(stmts, types)
	alone := Fuse(stmts[:1], types)
	// Each statement keeps two private instructions, its enable's slice
	// and the AND of the truths; the user condition is all prelude.
	if fs.Stats.SharedSegs < alone.Stats.Instrs-2 {
		t.Fatalf("guarded user condition not shared: %+v (one statement alone: %+v)", fs.Stats, alone.Stats)
	}
	if fs.Stats.Instrs >= 4*alone.Stats.Instrs {
		t.Fatalf("four statements cost %d instructions, one alone %d: nothing shared", fs.Stats.Instrs, alone.Stats.Instrs)
	}
	for _, x := range []uint64{0, 5, 15} {
		for _, y := range []uint64{7, 20, 33} {
			slotVals := []eval.Value{eval.Make(x, 8, false), eval.Make(y, 8, false)}
			results, fused := fuseRun(fs, slotVals, nil)
			for j := range stmts {
				en := MustParse(fmt.Sprintf("x[%d]", j))
				want, err := refCond(en, user, slotEnv(slotsA, slotVals))
				if !fused[j] {
					t.Fatalf("statement %d not fused", j)
				}
				if err := checkFused(results[j], want, err, true); err != nil {
					t.Fatalf("x=%d y=%d statement %d: %v", x, y, j, err)
				}
			}
		}
	}
}

// TestFusePoisonIsolation checks what a failed read poisons. Fused
// expression primitives cannot fail (their types are checked at fuse
// time), so the one poison source is a union slot whose read failed,
// and it poisons exactly the conditions whose slot list holds it:
// those reading it directly or through the prelude, and no other.
func TestFusePoisonIsolation(t *testing.T) {
	shared := MustParse("(a + b) > 3") // in the prelude: two conditions reach it
	conds := []FusedCondition{
		compileCond(t, shared, nil, map[string]int{"a": 0, "b": 1}),
		compileCond(t, shared, MustParse("b == 5"), map[string]int{"a": 0, "b": 1}),
		compileCond(t, MustParse("c == 9"), nil, map[string]int{"c": 2}),
	}
	types := []eval.Value{eval.Make(0, 8, false), eval.Make(0, 8, false), eval.Make(0, 8, false)}
	fs := Fuse(conds, types)
	if fs.Stats.SharedSegs == 0 {
		t.Fatalf("expected the common enable in the prelude: %+v", fs.Stats)
	}
	reads := func(ci int, slot int32) bool {
		for _, s := range fs.Slots[fs.IDs[ci]] {
			if s == slot {
				return true
			}
		}
		return false
	}
	// Slot 0 ("a") reaches conditions 0 and 1 only through the prelude.
	if !reads(0, 0) || !reads(1, 0) || reads(2, 0) {
		t.Fatalf("slot lists %v: slot 0 must poison conditions 0 and 1 only", fs.Slots)
	}
	if !reads(2, 2) || reads(0, 2) || reads(1, 2) {
		t.Fatalf("slot lists %v: slot 2 must poison condition 2 only", fs.Slots)
	}
	slotVals := []eval.Value{eval.Make(2, 8, false), eval.Make(5, 8, false), eval.Make(9, 8, false)}
	results, fused := fuseRun(fs, slotVals, nil)
	if !fused[2] || !results[2].IsTrue() {
		t.Fatalf("unrelated condition: fused %v v=%v", fused[2], results[2])
	}
}

// TestFusedExecZeroAllocs pins the fused hot loop's allocation-free
// property: running a fused program with a prelude and a skip bitmap
// allocates nothing.
func TestFusedExecZeroAllocs(t *testing.T) {
	slots := map[string]int{"a": 0, "b": 1, "c": 2}
	enable := MustParse("(a + b) % 7 == 3")
	conds := []FusedCondition{
		compileCond(t, enable, MustParse("c > 2"), slots),
		compileCond(t, enable, MustParse("c < 100"), slots),
		compileCond(t, MustParse("(a + b) % 7 != 3"), nil, slots),
	}
	types := []eval.Value{eval.Make(0, 16, false), eval.Make(0, 16, false), eval.Make(0, 16, false)}
	fs := Fuse(conds, types)
	if fs.Stats.Conds != 3 || fs.Stats.SharedSegs == 0 {
		t.Fatalf("unexpected schedule: %+v", fs.Stats)
	}
	plane := append([]uint64(nil), fs.Prog.Init...)
	copy(plane, []uint64{5, 12, 9})
	skip := []uint64{0b010}
	allocs := testing.AllocsPerRun(100, func() {
		fs.Prog.Exec(plane, skip)
	})
	if allocs != 0 {
		t.Fatalf("fused exec allocates %.1f objects per run, want 0", allocs)
	}
}

// fig5Conds builds the 128 conditions of BenchmarkFig5Fused's
// workload: 16 instances × 8 statements, statement j of an instance
// enabled by the SSA chain (((_T_0 & _T_1) & …) & _T_j) over the
// instance's 1-bit nodes, and all armed with one user condition (the
// statements share a source line) over the instance's 8-bit acc.
// Instance i's _T_0 … _T_7 and acc are union slots 9i to 9i+8.
func fig5Conds(tb testing.TB) ([]FusedCondition, []eval.Value) {
	const instances, stmts = 16, 8
	var types []eval.Value
	var conds []FusedCondition
	for i := 0; i < instances; i++ {
		slots := map[string]int{}
		for j := 0; j < stmts; j++ {
			slots[fmt.Sprintf("_T_%d", j)] = len(types)
			types = append(types, eval.Make(0, 1, false))
		}
		slots["acc"] = len(types)
		types = append(types, eval.Make(0, 8, false))
		enable := "_T_0"
		for j := 0; j < stmts; j++ {
			if j > 0 {
				enable = fmt.Sprintf("(%s & _T_%d)", enable, j)
			}
			cond := MustParse("acc % 13 == 77 && acc[3:0] != 0")
			conds = append(conds, compileCond(tb, MustParse(enable), cond, slots))
		}
	}
	return conds, types
}

// BenchmarkFuse is the cost of building the fused program for
// BenchmarkFig5Fused's 128 conditions: the work a breakpoint change
// adds to the next armed edge.
func BenchmarkFuse(b *testing.B) {
	conds, types := fig5Conds(b)
	b.ReportAllocs()
	var fs *FusedSchedule
	for i := 0; i < b.N; i++ {
		fs = Fuse(conds, types)
	}
	b.ReportMetric(float64(fs.Stats.Instrs), "instrs")
}
