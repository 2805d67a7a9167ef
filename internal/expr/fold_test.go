package expr

import (
	"math/rand"
	"testing"

	"repro/internal/eval"
)

var diffOps = []string{
	"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
	"&", "|", "^", "<<", ">>", "&&", "||",
}

// randNode builds a random expression tree of bounded depth over names.
func randNode(r *rand.Rand, names []string, depth int) Node {
	if depth <= 0 || r.Intn(6) == 0 {
		if r.Intn(3) == 0 {
			w := 1 + r.Intn(12)
			return numNode{v: eval.Make(r.Uint64(), w, false)}
		}
		return nameNode{name: names[r.Intn(len(names))]}
	}
	switch r.Intn(12) {
	case 0:
		ops := []string{"~", "!", "-"}
		return unaryNode{op: ops[r.Intn(len(ops))], x: randNode(r, names, depth-1)}
	case 1:
		// Bit ranges past the operand width exercise the forgiving
		// zero-extension path.
		hi := r.Intn(70)
		lo := r.Intn(hi + 1)
		return bitsNode{x: randNode(r, names, depth-1), hi: hi, lo: lo}
	case 2:
		return ternaryNode{
			cond: randNode(r, names, depth-1),
			t:    randNode(r, names, depth-1),
			f:    randNode(r, names, depth-1),
		}
	default:
		return binNode{
			op: diffOps[r.Intn(len(diffOps))],
			a:  randNode(r, names, depth-1),
			b:  randNode(r, names, depth-1),
		}
	}
}

func TestCompileConstantFolding(t *testing.T) {
	cases := []struct {
		src  string
		want eval.Value
	}{
		{"1 + 2", eval.Make(3, 3, false)},
		{"(3 * 4) == 12", eval.Make(1, 1, false)},
		{"0 && a", eval.Make(0, 1, false)}, // short-circuit: a is dead
		{"1 || a", eval.Make(1, 1, false)},
		{"1 ? 7 : a", eval.Make(7, 3, false)},
		{"0 ? a : 5", eval.Make(5, 3, false)},
		{"-3", eval.Make(uint64(0xd), 3, true)},
		{"0 && 8'bx", eval.Make(0, 1, false)}, // dead four-state literal
	}
	for _, c := range cases {
		p := newProgram(MustParse(c.src))
		if len(p.Deps) != 0 {
			t.Errorf("%q: deps = %v, want none (folded)", c.src, p.Deps)
		}
		lit, ok := p.Folded.(numNode)
		if !ok {
			t.Errorf("%q: not folded to a literal: %s", c.src, p.Folded)
			continue
		}
		if lit.v != c.want {
			t.Errorf("%q = %#v, want %#v", c.src, lit.v, c.want)
		}
	}
	// A live four-state or wide literal never folds away, so Fuse
	// rejects the condition and it stays with the general evaluator.
	for _, src := range []string{"a === 8'b1x0z", "8'bx == 8'bx", "1 && 130'h1"} {
		if !fuseRejects(src) {
			t.Errorf("%q: fused as %s", src, newProgram(MustParse(src)).Folded)
		}
	}
}

// TestCompileDepsDeduplicated checks the dependency list is the sorted
// set of live signal references.
func TestCompileDepsDeduplicated(t *testing.T) {
	p := newProgram(MustParse("b + a > a && b < a"))
	if len(p.Deps) != 2 || p.Deps[0] != "a" || p.Deps[1] != "b" {
		t.Fatalf("deps = %v, want [a b]", p.Deps)
	}
}

// TestCompileShortCircuitSkipsDeadSide verifies the fused && / || / ?:,
// which compute both sides, agree with EvalBits, which never evaluates
// the skipped side.
func TestCompileShortCircuitSkipsDeadSide(t *testing.T) {
	slots := map[string]int{"a": 0, "b": 1}
	env := []eval.Value{eval.Make(0, 8, false), eval.Make(5, 8, false)}
	for _, tc := range []struct {
		src   string
		truth bool
	}{
		{"a == 0 && b > 1", false},
		{"a != 0 || b > 1", false},
		{"a ? b : 8'd3", false},
		// Arms of different types fuse where only the truth is read.
		{"a ? b : 3", true},
	} {
		n := MustParse(tc.src)
		fc := compileCond(t, n, nil, slots)
		fc.Truth = tc.truth
		fs := Fuse([]FusedCondition{fc}, slotTypes(env))
		results, fused := fuseRun(fs, env, nil)
		want, errW := refCond(n, nil, slotEnv(slots, env))
		if errW != nil || !fused[0] {
			t.Fatalf("%q: EvalBits err %v, fused %v", tc.src, errW, fused[0])
		}
		if err := checkFused(results[0], want, errW, tc.truth); err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
	}
}
