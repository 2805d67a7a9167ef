package expr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/val"
)

// bitsEnv builds a BitsResolver over a fixed set of signals.
func bitsEnv(m map[string]val.Bits) BitsResolver {
	return BitsResolverFunc(func(name string) (val.Bits, error) {
		b, ok := m[name]
		if !ok {
			return val.Bits{}, fmt.Errorf("unknown signal %q", name)
		}
		return b, nil
	})
}

func mustBits(t *testing.T, lit string, width int) val.Bits {
	t.Helper()
	b, err := val.ParseVCD(lit, width)
	if err != nil {
		t.Fatalf("ParseVCD(%q): %v", lit, err)
	}
	return b
}

func evalBitsStr(t *testing.T, src string, env BitsResolver) val.Bits {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	b, err := EvalBits(n, env)
	if err != nil {
		t.Fatalf("EvalBits(%q): %v", src, err)
	}
	return b
}

func TestEvalBitsXPropagation(t *testing.T) {
	x8 := mustBits(t, "1x0z", 8) // 8'b0000_1x0z
	env := bitsEnv(map[string]val.Bits{
		"x8":   x8,
		"k8":   val.FromUint64(9, 8), // matches x8 on every known bit
		"zero": val.FromUint64(0, 4),
		"one":  val.FromUint64(1, 1),
	})
	cases := []struct {
		src  string
		want val.Bits
	}{
		// Arithmetic goes whole-result x on any unknown input.
		{"x8 + 1", val.Unknown(9)},
		{"x8 - k8", val.Unknown(9)},
		{"-x8", val.Unknown(9)},
		// Bitwise is per-bit: known 0 dominates &, known 1 dominates |.
		{"x8 & 0", val.FromUint64(0, 8)},
		{"x8 & 15", mustBits(t, "1x0x", 8)},
		{"x8 | 15", val.FromUint64(15, 8)},
		{"~x8", mustBits(t, "11110x1x", 8)},
		// Equality is three-valued; case equality always resolves.
		{"x8 == k8", val.Unknown(1)},
		{"x8 == 8'hf0", val.FromUint64(0, 1)}, // known high nibble differs
		{"x8 === 8'b1x0z", val.FromUint64(1, 1)},
		{"x8 !== 8'b1x0z", val.FromUint64(0, 1)},
		{"x8 === k8", val.FromUint64(0, 1)},
		// Truthiness: a dominant known bit decides && / || / ?: even
		// when the other side is x.
		{"x8 && one", val.FromUint64(1, 1)},
		{"x8[2] && one", val.Unknown(1)},
		{"x8[2] && zero", val.FromUint64(0, 1)},
		{"x8[2] || one", val.FromUint64(1, 1)},
		{"x8[2] || zero", val.Unknown(1)},
		// Unknown ternary selector keeps only agreeing bits.
		{"x8[2] ? 12 : 12", val.FromUint64(12, 4)},
		{"x8[2] ? 5 : 4", mustBits(t, "10x", 3)},
		// Ordered comparison with any x is unknown.
		{"x8 < k8", val.Unknown(1)},
		{"zero < k8", val.FromUint64(1, 1)},
		// Shifts: x bits ride along; x amounts poison the result.
		{"x8 << 1", mustBits(t, "0001x0z0", 8)},
		{"x8 >> 3", mustBits(t, "00000001", 8)},
		{"k8 << x8[2]", val.Unknown(8)},
	}
	for _, tc := range cases {
		got := evalBitsStr(t, tc.src, env)
		if !got.CaseEq(tc.want) || got.Width != tc.want.Width {
			t.Errorf("%s = %s (width %d), want %s (width %d)",
				tc.src, got, got.Width, tc.want, tc.want.Width)
		}
	}
}

func TestEvalBitsWideValues(t *testing.T) {
	// 160-bit bus with bit 159 and bit 0 set.
	w160 := val.FromWords([]uint64{1, 0, 1 << 31}, 160)
	env := bitsEnv(map[string]val.Bits{"bus": w160})

	if got := evalBitsStr(t, "bus + 1", env); !got.CaseEq(val.FromWords([]uint64{2, 0, 1 << 31}, 160)) {
		t.Fatalf("bus + 1 = %s", got)
	}
	if got := evalBitsStr(t, "bus[159]", env); !got.CaseEq(val.FromUint64(1, 1)) {
		t.Fatalf("bus[159] = %s", got)
	}
	if got := evalBitsStr(t, "bus[158:64]", env); !got.CaseEq(val.FromUint64(0, 95)) {
		t.Fatalf("bus[158:64] = %s", got)
	}
	lit := "160'h8" + strings.Repeat("0", 38) + "1"
	if got := evalBitsStr(t, "bus === "+lit, env); !got.CaseEq(val.FromUint64(1, 1)) {
		t.Fatalf("bus === %s = %s", lit, got)
	}
	if got := evalBitsStr(t, "bus == 1", env); !got.CaseEq(val.FromUint64(0, 1)) {
		t.Fatalf("bus == 1 = %s", got)
	}
	// True >64-bit magnitudes degrade to x for * and / rather than
	// silently truncating.
	if got := evalBitsStr(t, "bus * 2", env); !got.HasX() {
		t.Fatalf("wide multiply should be unknown, got %s", got)
	}
}

func TestSizedLiterals(t *testing.T) {
	env := bitsEnv(nil)
	cases := []struct {
		src  string
		want val.Bits
	}{
		{"16'hdead", val.FromUint64(0xdead, 16)},
		{"16'hde_ad", val.FromUint64(0xdead, 16)},
		{"4'd12", val.FromUint64(12, 4)},
		{"6'o17", val.FromUint64(0o17, 6)},
		{"8'b1010", val.FromUint64(10, 8)},
		{"8'b1x0z", mustBits(t, "1x0z", 8)},
		{"8'hx", val.Unknown(8)}, // x-extends to the declared width
		{"4'hz", mustBits(t, "zzzz", 4)},
		{"12'hx0", mustBits(t, "xxxxxxxx0000", 12)},
	}
	for _, tc := range cases {
		got := evalBitsStr(t, tc.src, env)
		if !got.CaseEq(tc.want) || got.Width != tc.want.Width {
			t.Errorf("%s = %s (width %d), want %s (width %d)",
				tc.src, got, got.Width, tc.want, tc.want.Width)
		}
	}

	// Known sized literals stay on the two-state path at their declared
	// width, so a condition using one still fuses.
	p := newProgram(MustParse("16'hdead"))
	if lit, ok := p.Folded.(numNode); p == nil || !ok || lit.v.Bits != 0xdead || lit.v.Width != 16 {
		t.Fatalf("two-state 16'hdead folded to %v", p)
	}

	// Four-state literals parse but have no fusable program, forcing
	// the general path.
	if p := newProgram(MustParse("sig === 8'b1x0z")); p != nil {
		t.Fatalf("four-state literal fused as %s", p.Folded)
	}

	for _, bad := range []string{"8'b2", "99999999'h0", "8'hgg", "0'd0"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
