package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/val"
)

// fuseExec runs a fused schedule against per-slot values and returns
// the per-condition results.
func fuseExec(fs *FusedSchedule, slotVals []eval.Value) (results []eval.Value, ok []bool) {
	operands := make([]eval.Value, len(fs.Slots))
	opsOK := make([]bool, len(fs.Slots))
	for i, s := range fs.Slots {
		operands[i] = slotVals[s]
		opsOK[i] = true
	}
	results = make([]eval.Value, len(fs.Prog.Conds))
	ok = make([]bool, len(fs.Prog.Conds))
	var m eval.FusedMachine
	m.Exec(&fs.Prog, operands, opsOK, nil, results, ok)
	return results, ok
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

// refCond is the fuser's oracle: EvalBits over the original, unfolded
// enable and user-condition trees, combined the way a fused segment
// combines them — the user condition runs only once the enable holds,
// a falsy enable value is itself the result, and a condition with
// neither is the constant 1.
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

// checkFused compares one fused result with the oracle's. A sound
// result must match by value, width and sign — watch values ride the
// fused program, not just truth — and a condition whose oracle
// evaluation errors must never be reported sound. Unsound results
// where the oracle succeeds are allowed: poisoning may be conservative
// (a hoisted subexpression can fault where the original would have
// short-circuited past it) but must not be optimistic.
func checkFused(got eval.Value, ok bool, want val.Bits, errW error) error {
	if errW != nil {
		if ok {
			return fmt.Errorf("EvalBits errs (%v) but fused reports sound %v", errW, got)
		}
		return nil
	}
	if !ok {
		return nil
	}
	if g := got.ToBits(); !g.CaseEq(want) || g.Width != want.Width || g.Signed != want.Signed {
		return fmt.Errorf("fused %s (width %d, signed %v), EvalBits %s (width %d, signed %v)",
			g, g.Width, g.Signed, want, want.Width, want.Signed)
	}
	return nil
}

// compileCond builds a FusedCondition from optional enable/cond ASTs
// and a per-condition name → global slot mapping.
func compileCond(t *testing.T, enable, cond Node, slotOf map[string]int) FusedCondition {
	t.Helper()
	var fc FusedCondition
	mk := func(n Node) (*Program, []int) {
		p := newProgram(n)
		if p == nil {
			t.Fatalf("%s has no fusable program", n)
		}
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

// TestFuseDifferential pins the fuser against EvalBits over random
// condition sets: every sound fused result must equal EvalBits of the
// original trees in value, width and sign (see checkFused), across
// random environments mixing signed and unsigned operands of widths
// 1–64.
func TestFuseDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	names := []string{"a", "b", "c", "d"}
	const numSlots = 6
	sharedTotal := 0
	type orig struct {
		enable, cond Node
		slotOf       map[string]int
	}
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.Intn(10)
		conds := make([]FusedCondition, k)
		origs := make([]orig, k)
		for i := range conds {
			slotOf := map[string]int{}
			for _, n := range names {
				// Small slot pool so structurally equal conditions often
				// land on the same slots and CSE actually fires.
				slotOf[n] = r.Intn(numSlots)
			}
			var enable, cond Node
			if r.Intn(4) != 0 {
				enable = randNode(r, names, 3)
			}
			if r.Intn(2) == 0 {
				cond = randNode(r, names, 3)
			}
			conds[i] = compileCond(t, enable, cond, slotOf)
			origs[i] = orig{enable, cond, slotOf}
		}
		fs, err := Fuse(conds)
		if err != nil {
			t.Fatalf("trial %d: fuse: %v", trial, err)
		}
		sharedTotal += fs.Stats.SharedSegs
		for env := 0; env < 3; env++ {
			slotVals := make([]eval.Value, numSlots)
			for s := range slotVals {
				slotVals[s] = eval.Make(r.Uint64(), 1+r.Intn(64), r.Intn(2) == 0)
			}
			results, ok := fuseExec(fs, slotVals)
			for ci, o := range origs {
				want, errW := refCond(o.enable, o.cond, slotEnv(o.slotOf, slotVals))
				if err := checkFused(results[ci], ok[ci], want, errW); err != nil {
					t.Fatalf("trial %d cond %d (%v / %v): %v", trial, ci, o.enable, o.cond, err)
				}
			}
		}
	}
	if sharedTotal == 0 {
		t.Fatal("no shared segments hoisted across any trial; CSE never exercised")
	}
}

// FuzzFuse is the coverage-guided version of TestFuseDifferential: two
// fuzz-chosen condition sources (shared slot pool, so common structure
// fuses) against EvalBits. The corpus seeds cover the interesting
// shapes — hoistable common enables, guarded-only sharing, ternaries,
// slices.
func FuzzFuse(f *testing.F) {
	f.Add("(x + y) > 3", "(x + y) < 9", uint64(1))
	f.Add("a == 0 && (b << a) > 1", "a == 1 && (b << a) > 1", uint64(2))
	f.Add("en ? cnt == 5 : cnt == 9", "en && cnt[3:0] != 2", uint64(3))
	f.Add("a % b == 0", "a / b > 1", uint64(4))
	// Sized literals and case equality: two-state sized forms fuse;
	// four-state / >64-bit literals have no fusable program, seeding
	// the parser side of the corpus.
	f.Add("x === 16'hdead", "x !== 16'hbeef && x > 0", uint64(5))
	f.Add("a === 8'b1x0z", "a == 130'h3deadbeefcafebabe0123456789abcdef0", uint64(6))
	f.Add("-a < 0", "(a >> 1) + 1 == 0", uint64(7))
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
			if p == nil {
				return
			}
			slots := make([]int, len(p.Deps))
			for i, d := range p.Deps {
				if _, seen := slotOf[d]; !seen {
					slotOf[d] = len(slotOf) % numSlots
				}
				slots[i] = slotOf[d]
			}
			conds = append(conds, FusedCondition{Enable: p, EnableSlots: slots})
			nodes = append(nodes, n)
		}
		fs, err := Fuse(conds)
		if err != nil {
			t.Fatalf("fuse: %v", err)
		}
		rng := seed
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for env := 0; env < 2; env++ {
			slotVals := make([]eval.Value, numSlots)
			for s := range slotVals {
				slotVals[s] = eval.Make(next(), 1+int(next()%64), next()%2 == 0)
			}
			results, ok := fuseExec(fs, slotVals)
			for ci, n := range nodes {
				want, errW := refCond(n, nil, slotEnv(slotOf, slotVals))
				if err := checkFused(results[ci], ok[ci], want, errW); err != nil {
					t.Fatalf("cond %d (%q/%q): %v", ci, src1, src2, err)
				}
			}
		}
	})
}

// TestFuseCSE checks the sharing rules directly: identical structure
// over identical slots is hoisted once and read everywhere, while
// sibling instances (same structure, different slots) share nothing.
func TestFuseCSE(t *testing.T) {
	slotsA := map[string]int{"x": 0, "y": 1}
	enable := MustParse("(x + y) > 3")
	cond := MustParse("(x + y) < 9")
	same := []FusedCondition{
		compileCond(t, enable, nil, slotsA),
		compileCond(t, enable, cond, slotsA),
	}
	fs, err := Fuse(same)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.SharedSegs == 0 || fs.Stats.SharedReads < 2 {
		t.Fatalf("same-slot conditions should share: %+v", fs.Stats)
	}
	if fs.Stats.Operands != 2 {
		t.Fatalf("operand table should dedup by slot: %+v", fs.Stats)
	}
	slotVals := []eval.Value{eval.Make(2, 8, false), eval.Make(5, 8, false)}
	results, ok := fuseExec(fs, slotVals)
	// x+y = 7: enable true for both; second condition also wants < 9.
	if !ok[0] || !ok[1] || !results[0].IsTrue() || !results[1].IsTrue() {
		t.Fatalf("results = %v ok = %v", results, ok)
	}

	siblings := []FusedCondition{
		compileCond(t, enable, nil, map[string]int{"x": 0, "y": 1}),
		compileCond(t, enable, nil, map[string]int{"x": 2, "y": 3}),
	}
	fs2, err := Fuse(siblings)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Stats.SharedSegs != 0 {
		t.Fatalf("sibling instances over different slots must not share: %+v", fs2.Stats)
	}
}

// TestFuseGuardedNotHoisted checks the short-circuit safety rule: a
// subexpression that only ever occurs behind a guard (&&/|| right side,
// ternary arm) never registers a CSE candidate, so two conditions whose
// only common structure is guarded share nothing. (A twice-unguarded
// WHOLE condition may legitimately be hoisted — its internal
// short-circuit jumps travel with it into the prelude segment.)
func TestFuseGuardedNotHoisted(t *testing.T) {
	slots := map[string]int{"a": 0, "b": 1}
	// (b << a) > 1 appears in both conditions but only on && right
	// sides, and the unguarded left sides differ — nothing may be
	// shared.
	nodes := []Node{MustParse("a == 0 && (b << a) > 1"), MustParse("a == 1 && (b << a) > 1")}
	conds := []FusedCondition{
		compileCond(t, nodes[0], nil, slots),
		compileCond(t, nodes[1], nil, slots),
	}
	fs, err := Fuse(conds)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.SharedSegs != 0 {
		t.Fatalf("guarded-only common structure was hoisted: %+v", fs.Stats)
	}
	slotVals := []eval.Value{eval.Make(0, 8, false), eval.Make(3, 8, false)}
	results, ok := fuseExec(fs, slotVals)
	for ci, n := range nodes {
		want, errW := refCond(n, nil, slotEnv(slots, slotVals))
		if errW != nil {
			t.Fatalf("cond %d: unexpected reference error %v", ci, errW)
		}
		if !ok[ci] {
			t.Fatalf("cond %d: fused result poisoned", ci)
		}
		if err := checkFused(results[ci], ok[ci], want, errW); err != nil {
			t.Fatalf("cond %d: %v", ci, err)
		}
	}
}

// TestFusePoisonIsolation checks per-segment error isolation. Fused
// expr primitives cannot fault at run time (division by zero yields
// zero, dynamic shifts cap their width), so the poison source is the
// one the scheduler actually sees: a failed operand fetch. A condition
// reading the failed operand — directly or through a shared segment —
// reports unsound; unrelated conditions stay sound.
func TestFusePoisonIsolation(t *testing.T) {
	shared := MustParse("(a + b) > 3") // hoisted: unguarded in two conditions
	conds := []FusedCondition{
		compileCond(t, shared, nil, map[string]int{"a": 0, "b": 1}),
		compileCond(t, shared, MustParse("b == 5"), map[string]int{"a": 0, "b": 1}),
		compileCond(t, MustParse("c == 9"), nil, map[string]int{"c": 2}),
	}
	fs, err := Fuse(conds)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.SharedSegs == 0 {
		t.Fatalf("expected the common enable to be hoisted: %+v", fs.Stats)
	}
	slotVals := []eval.Value{eval.Make(2, 8, false), eval.Make(5, 8, false), eval.Make(9, 8, false)}
	operands := make([]eval.Value, len(fs.Slots))
	opsOK := make([]bool, len(fs.Slots))
	for i, s := range fs.Slots {
		operands[i] = slotVals[s]
		opsOK[i] = s != 0 // slot 0 ("a") failed to fetch
	}
	results := make([]eval.Value, len(fs.Prog.Conds))
	ok := make([]bool, len(fs.Prog.Conds))
	var m eval.FusedMachine
	m.Exec(&fs.Prog, operands, opsOK, nil, results, ok)
	if ok[0] || ok[1] {
		t.Fatalf("conditions reading the failed operand must be poisoned: ok=%v", ok)
	}
	if !ok[2] || !results[2].IsTrue() {
		t.Fatalf("unrelated condition poisoned: ok=%v v=%v", ok[2], results[2])
	}
}

// TestFusedExecZeroAllocs pins the fused hot loop's allocation-free
// property: steady-state execution of a fused program with CSE and a
// skip bitmap performs no heap allocations.
func TestFusedExecZeroAllocs(t *testing.T) {
	slots := map[string]int{"a": 0, "b": 1, "c": 2}
	enable := MustParse("(a + b) % 7 == 3")
	conds := []FusedCondition{
		compileCond(t, enable, MustParse("c > 2"), slots),
		compileCond(t, enable, MustParse("c < 100"), slots),
		compileCond(t, MustParse("(a + b) % 7 != 3"), nil, slots),
	}
	fs, err := Fuse(conds)
	if err != nil {
		t.Fatal(err)
	}
	operands := make([]eval.Value, len(fs.Slots))
	opsOK := make([]bool, len(fs.Slots))
	slotVals := []eval.Value{eval.Make(5, 16, false), eval.Make(12, 16, false), eval.Make(9, 16, false)}
	for i, s := range fs.Slots {
		operands[i], opsOK[i] = slotVals[s], true
	}
	results := make([]eval.Value, len(fs.Prog.Conds))
	ok := make([]bool, len(fs.Prog.Conds))
	var m eval.FusedMachine
	skip := make([]uint64, (len(fs.Prog.Conds)+63)/64)
	allocs := testing.AllocsPerRun(100, func() {
		m.Exec(&fs.Prog, operands, opsOK, skip, results, ok)
	})
	if allocs != 0 {
		t.Fatalf("fused exec allocates %.1f objects per run, want 0", allocs)
	}
}
