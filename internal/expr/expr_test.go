package expr

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/val"
)

// mapResolver resolves names from a fixed table of 32-bit values.
type mapResolver map[string]uint64

func (m mapResolver) ResolveBits(name string) (val.Bits, error) {
	v, ok := m[name]
	if !ok {
		return val.Bits{}, fmt.Errorf("unknown name %q", name)
	}
	return val.FromUint64(v, 32), nil
}

// evalSrc parses and evaluates one expression.
func evalSrc(src string, r BitsResolver) (val.Bits, error) {
	n, err := Parse(src)
	if err != nil {
		return val.Bits{}, err
	}
	return EvalBits(n, r)
}

func evalStr(t *testing.T, src string, r BitsResolver) val.Bits {
	t.Helper()
	v, err := evalSrc(src, r)
	if err != nil {
		t.Fatalf("EvalBits(%q): %v", src, err)
	}
	return v
}

func isTrue(b val.Bits) bool { return b.Truth() == val.True }

func TestArithmetic(t *testing.T) {
	r := mapResolver{"a": 10, "b": 3}
	cases := []struct {
		src  string
		want uint64
	}{
		{"a + b", 13},
		{"a - b", 7},
		{"a * b", 30},
		{"a / b", 3},
		{"a % b", 1},
		{"a + b * 2", 16},
		{"(a + b) * 2", 26},
		{"a - b - 2", 5}, // left associative
		{"10 + 0x10", 26},
		{"0b101 + 1", 6},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, r); got.V0 != c.want {
			t.Errorf("%q = %d, want %d", c.src, got.V0, c.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	r := mapResolver{"x": 5, "y": 9, "z": 0}
	cases := []struct {
		src  string
		want bool
	}{
		{"x < y", true},
		{"x > y", false},
		{"x <= 5", true},
		{"x >= 6", false},
		{"x == 5", true},
		{"x != 5", false},
		{"x < y && y < 10", true},
		{"x > y || y == 9", true},
		{"!z", true},
		{"!x", false},
		{"z && (1/z) == 1", false}, // short-circuit guards div-by-zero
		{"x == 5 ? 1 : 0", true},
		{"x != 5 ? 1 : 0", false},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, r); isTrue(got) != c.want {
			t.Errorf("%q = %v, want %v", c.src, isTrue(got), c.want)
		}
	}
}

func TestBitwiseAndShifts(t *testing.T) {
	r := mapResolver{"a": 0b1100, "b": 0b1010}
	cases := []struct {
		src  string
		want uint64
	}{
		{"a & b", 0b1000},
		{"a | b", 0b1110},
		{"a ^ b", 0b0110},
		{"a << 2", 0b110000},
		{"a >> 2", 0b11},
		{"a[3]", 1},
		{"a[1]", 0},
		{"a[3:2]", 0b11},
		{"a[3:0]", 0b1100},
		{"~a & 0xF", 0b0011},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, r); got.V0 != c.want {
			t.Errorf("%q = %#b, want %#b", c.src, got.V0, c.want)
		}
	}
}

func TestDottedNames(t *testing.T) {
	r := mapResolver{"Top.u0.acc": 42, "io.out.bits": 7}
	if got := evalStr(t, "Top.u0.acc + io.out.bits", r); got.V0 != 49 {
		t.Fatalf("dotted = %d", got.V0)
	}
	n := MustParse("Top.u0.acc == 42")
	names := Names(n)
	if len(names) != 1 || names[0] != "Top.u0.acc" {
		t.Fatalf("names = %v", names)
	}
}

func TestTernaryNesting(t *testing.T) {
	r := mapResolver{"s": 2}
	got := evalStr(t, "s == 0 ? 10 : s == 1 ? 20 : 30", r)
	if got.V0 != 30 {
		t.Fatalf("nested ternary = %d", got.V0)
	}
}

func TestRoundTripWithRenderInfix(t *testing.T) {
	// Enable conditions rendered by ir.RenderInfix must parse and
	// evaluate in this language — that contract links the symbol table
	// to the debugger.
	enable := ir.NewPrim(ir.OpAnd,
		ir.Ref{Name: "_T_1"},
		ir.NewPrim(ir.OpNot, ir.Ref{Name: "_T_2"}))
	src := ir.RenderInfix(enable)
	r := mapResolver{"_T_1": 1, "_T_2": 0}
	v, err := evalSrc(src, r)
	if err != nil {
		t.Fatalf("round trip %q: %v", src, err)
	}
	if !isTrue(v) {
		t.Fatalf("%q = false, want true", src)
	}
	// Bit-extract rendering round-trips too.
	bit := ir.NewPrimP(ir.OpBits, []int{0, 0}, ir.Ref{Name: "data"})
	src2 := ir.RenderInfix(bit)
	v2, err := evalSrc(src2, mapResolver{"data": 3})
	if err != nil || v2.V0 != 1 {
		t.Fatalf("%q = %v, %v", src2, v2, err)
	}
	// Mux rendering.
	mux := ir.Mux{Cond: ir.Ref{Name: "c"}, T: ir.ConstUInt(4, 4), F: ir.ConstUInt(9, 4)}
	v3, err := evalSrc(ir.RenderInfix(mux), mapResolver{"c": 0})
	if err != nil || v3.V0 != 9 {
		t.Fatalf("mux render = %v, %v", v3, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "a[", "a[3:", "a[1:3]", "a ? 1", "@", "1 2", "a b",
		"0xZZ", "? 1 : 2",
		// Bit indices are bounded like a sized literal's width.
		"a[65536]", "a[70:65536]", "0[222222222222222222:10]", "a[99999999999999999999]",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	r := mapResolver{}
	if _, err := evalSrc("ghost + 1", r); err == nil {
		t.Fatal("unknown name evaluated")
	}
	if _, err := evalSrc("a[100]", mapResolver{"a": 1}); err != nil {
		// Forgiving width handling: high bits read as zero.
		t.Fatalf("wide bit extract: %v", err)
	}
}

func TestNamesCollection(t *testing.T) {
	n := MustParse("(a & b) | (c ? d : a)")
	names := Names(n)
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if names[i] != want {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestStringRendering(t *testing.T) {
	n := MustParse("a + b * c")
	if n.String() != "(a + (b * c))" {
		t.Fatalf("render = %s", n.String())
	}
	if MustParse("x[3:1]").String() != "x[3:1]" {
		t.Fatalf("bits render = %s", MustParse("x[3:1]").String())
	}
}

// Property: parsing the rendered form of a parsed expression yields the
// same evaluation result (parse/render fixpoint).
func TestParseRenderFixpointProperty(t *testing.T) {
	r := mapResolver{"a": 123, "b": 45}
	exprs := []string{
		"a + b", "a & b | 3", "a == b", "a[7:2] ^ b[4:0]",
		"a < b ? a : b", "~a & 0xFF", "a << 2", "a % (b + 1)",
	}
	f := func(pick uint8) bool {
		src := exprs[int(pick)%len(exprs)]
		n1, err := Parse(src)
		if err != nil {
			return false
		}
		n2, err := Parse(n1.String())
		if err != nil {
			return false
		}
		v1, err1 := EvalBits(n1, r)
		v2, err2 := EvalBits(n2, r)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1.CaseEq(v2) && v1.Width == v2.Width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
