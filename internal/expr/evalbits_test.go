package expr

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/eval"
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
		// Arms of different widths: the narrower arm has no bits above
		// its width, so the merge's are x there, and ~ over it does not
		// claim a truth the 1-bit arm (~1'b1 = 0) contradicts.
		{"x8[2] ? 1'b1 : 4'd1", mustBits(t, "xxx1", 4)},
		{"~(x8[2] ? 1'b1 : 4'd1)", mustBits(t, "xxx0", 4)},
		// Ordered comparison with any x is unknown.
		{"x8 < k8", val.Unknown(1)},
		{"zero < k8", val.FromUint64(1, 1)},
		// Shifts: x bits ride along; x amounts poison the result. A <<
		// widens as eval.Prim's dynamic shift does, by 2^(amount width)-1.
		{"x8 << 1", mustBits(t, "00001x0z0", 9)},
		{"x8 >> 3", mustBits(t, "00000001", 8)},
		{"k8 << x8[2]", val.Unknown(9)},
		// The amount is its low 6 bits, as on the two-state path: a shift
		// by 64 keeps the operand's bits, and an x bit above bit 5 leaves
		// the shift known.
		{"x8 << 7'd64", mustBits(t, "1x0z", 64)},
		{"k8 << 7'bx000001", val.FromUint64(18, 64)},
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
	// True >64-bit magnitudes stay exact, at the product's full width.
	if got := evalBitsStr(t, "bus * 2", env); !got.CaseEq(val.FromWords([]uint64{2, 0, 1 << 32}, 162)) || got.Width != 162 {
		t.Fatalf("bus * 2 = %s", got)
	}
	if got := evalBitsStr(t, "bus / 2 == "+"159'h4"+strings.Repeat("0", 39), env); !got.CaseEq(val.FromUint64(1, 1)) {
		t.Fatalf("bus / 2 = %s", got)
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

	// Four-state literals parse, but Fuse rejects them, forcing the
	// general path.
	if !fuseRejects("sig === 8'b1x0z") {
		t.Fatal("four-state literal fused")
	}

	for _, bad := range []string{"8'b2", "99999999'h0", "8'hgg", "0'd0"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestEvalBitsWideResults pins known operands whose two-state result
// type is wider than 64 bits: the node computes its exact value at the
// language's result width (max+1 for + and -, the sum for *, one more
// for signed / and unary -, hi-lo+1 for a slice) instead of losing the
// bits past 63, and signed results order by their sign.
func TestEvalBitsWideResults(t *testing.T) {
	signed := func(v uint64) val.Bits {
		b := val.FromUint64(v, 64)
		b.Signed = true
		return b
	}
	s40 := func(v int64) val.Bits {
		b := val.FromUint64(uint64(v), 40)
		b.Signed = true
		return b
	}
	s8 := func(v int64) val.Bits {
		b := val.FromUint64(uint64(v), 8)
		b.Signed = true
		return b
	}
	env := bitsEnv(map[string]val.Bits{
		"x":   val.FromUint64(^uint64(0), 64), // 2^64-1
		"y":   val.FromUint64(1<<63, 64),      // 2^63
		"min": signed(1 << 63),                // -2^63
		"m1":  signed(^uint64(0)),             // -1
		"p1":  signed(1),
		"z":   signed(0),
		"a40": s40(-1),
		"b40": s40(1),
		"c40": s40(0),
		"s8":  s8(0),
		"n8":  s8(-1),
		"a8":  val.FromUint64(0x80, 8),
	})
	cases := []struct {
		src  string
		want uint64
	}{
		{"x + 1 == 0", 0},
		{"x + 1 == 65'h10000000000000000", 1},
		{"y * 2 == 0", 0},
		{"y * 2 == 66'h10000000000000000", 1},
		{"0 - x == 65'h00000000000000001", 0},
		{"0 - x == 65'h10000000000000001", 1},
		{"-x == 65'h10000000000000001", 1},
		{"x[69:0] + 1 == 71'h10000000000000000", 1},
		{"x[69:4] == 66'h0fffffffffffffff", 1},
		// Signed: the sign extends, and the order is signed.
		{"m1 + 1 == 0", 1},
		{"min - 1 < 0", 1},
		{"-min > 0", 1},
		{"min / m1 > 0", 1},
		{"min * m1 > 0", 1},
		// Chains keep the sign of a wide intermediate.
		{"m1 - p1 - z < 0", 1},
		{"a40 * b40 + c40 < 0", 1},
		{"-(m1 - p1) > 0", 1},
		{"(m1 - p1) * p1 < 0", 1},
		{"(m1 - p1) / p1 < 0", 1},
		{"(m1 - p1) % p1 == 0", 1},
		{"(m1 - p1) >> 1 < 0", 1},
		{"(m1 - p1) << 1 < 0", 1},
		{"(x + 1) * 1 != 0", 1},
		{"(x + 1) / 1 != 0", 1},
		// Known operands divide as eval.Prim does: by zero gives 0.
		{"(min / z) == 0", 1},
		{"(x + 1) / 0 == 0", 1},
		// A signed operation reads a 64-bit unsigned operand by its
		// value, bit 63 included.
		{"s8 < x", 1},
		{"x > s8", 1},
		{"n8 < x", 1},
		{"n8 / x == 0", 1},
		{"n8 % x < 0", 1},
		// << widens by 2^min(amount width, 6)-1, capped at 64 bits,
		// whichever domain the amount is in.
		{"a8 << 1 == 256", 1},
		{"a8 << 70'd1 == 256", 1},
	}
	for _, tc := range cases {
		got := evalBitsStr(t, tc.src, env)
		if !got.CaseEq(val.FromUint64(tc.want, 1)) {
			t.Errorf("%s = %s, want %d", tc.src, got, tc.want)
		}
	}
	widths := []struct {
		src   string
		width int
	}{{"x + 1", 65}, {"x - 1", 65}, {"y * 2", 66}, {"-x", 65}, {"min / m1", 65}, {"x[69:0]", 70},
		{"n8 / x", 9}, {"n8 % x", 8}, {"a8 << 1", 9}, {"a8 << 70'd1", 64}}
	for _, tc := range widths {
		if got := evalBitsStr(t, tc.src, env); got.Width != tc.width {
			t.Errorf("%s is %d bits wide, want %d", tc.src, got.Width, tc.width)
		}
	}
}

// exact is TestEvalBitsMatchesExactIntegers' reference value: the
// integer a node denotes, read by its own sign, and the node's type.
type exact struct {
	z      *big.Int
	width  int
	signed bool
}

// wrap is z in two's complement at width, read by the given sign.
func wrap(z *big.Int, width int, signed bool) exact {
	m := new(big.Int).Lsh(big.NewInt(1), uint(width))
	z = new(big.Int).Mod(z, m)
	if signed && z.Bit(width-1) == 1 {
		z.Sub(z, m)
	}
	return exact{z, width, signed}
}

// bits renders the reference value as EvalBits would.
func (e exact) bits() val.Bits {
	m := new(big.Int).Lsh(big.NewInt(1), uint(e.width))
	z := new(big.Int).Mod(e.z, m)
	words := make([]uint64, (e.width+63)/64)
	for i := range words {
		words[i] = new(big.Int).Rsh(z, uint(64*i)).Uint64()
	}
	b := val.FromWords(words, e.width)
	b.Signed = e.signed
	return b
}

// exactGen draws arithmetic trees over typed names and evaluates them on
// exact integers with the language's typing: the operation is signed
// when its first operand is, + and - widen by one bit, * to the sum of
// the widths, a signed / by one bit, % narrows to the smaller width,
// unary - widens by one bit and is signed, >> keeps the width (floor
// division by a power of two), and a zero divisor gives 0. A signed
// operation's second operand is signed, or an unsigned name of any
// width up to 64 bits, read by its value.
type exactGen struct {
	r           *rand.Rand
	names       map[string]exact
	signed, uns []string
}

func (g *exactGen) leaf(signed bool) (Node, exact) {
	pool := g.uns
	if signed {
		pool = g.signed
	}
	n := pool[g.r.Intn(len(pool))]
	return nameNode{name: n}, g.names[n]
}

func (g *exactGen) tree(signed bool, depth int) (Node, exact) {
	if depth == 0 || g.r.Intn(4) == 0 {
		return g.leaf(signed)
	}
	if signed && g.r.Intn(6) == 0 {
		// Unary minus of either sign is signed.
		x, e := g.tree(g.r.Intn(2) == 0, depth-1)
		return unaryNode{op: "-", x: x}, wrap(new(big.Int).Neg(e.z), e.width+1, true)
	}
	ops := []string{"+", "-", "*", "/", "%", ">>"}
	op := ops[g.r.Intn(len(ops))]
	a, ea := g.tree(signed, depth-1)
	if op == ">>" {
		sh := g.r.Intn(ea.width + 2)
		z := new(big.Int).Rsh(ea.z, uint(sh))
		return binNode{op: op, a: a, b: numNode{v: eval.Make(uint64(sh), 16, false)}}, wrap(z, ea.width, ea.signed)
	}
	var b Node
	var eb exact
	if signed && g.r.Intn(4) == 0 {
		b, eb = g.leaf(false)
	} else {
		b, eb = g.tree(signed, depth-1)
	}
	z := new(big.Int)
	var w int
	switch op {
	case "+":
		z.Add(ea.z, eb.z)
		w = max(ea.width, eb.width) + 1
	case "-":
		z.Sub(ea.z, eb.z)
		w = max(ea.width, eb.width) + 1
	case "*":
		z.Mul(ea.z, eb.z)
		w = ea.width + eb.width
	case "/":
		if eb.z.Sign() != 0 {
			z.Quo(ea.z, eb.z)
		}
		w = ea.width
		if signed {
			w++
		}
	case "%":
		if eb.z.Sign() != 0 {
			z.Rem(ea.z, eb.z)
		}
		w = min(ea.width, eb.width)
	}
	return binNode{op: op, a: a, b: b}, wrap(z, w, signed)
}

// TestEvalBitsMatchesExactIntegers pins EvalBits' arithmetic against
// exact integers over random signed and unsigned trees whose operands
// are up to 64 bits wide and whose intermediates reach past 64 bits,
// so values cross between the two-state domain and the general one
// mid-tree. It also orders each tree against zero, another tree of its
// sign and an unsigned name.
func TestEvalBitsMatchesExactIntegers(t *testing.T) {
	r := rand.New(rand.NewSource(20261019))
	widths := []int{1, 2, 7, 32, 40, 63, 64}
	for trial := 0; trial < 300; trial++ {
		g := &exactGen{r: r, names: map[string]exact{}}
		env := map[string]val.Bits{}
		for i := 0; i < 6; i++ {
			signed := i%2 == 0
			w := widths[r.Intn(len(widths))]
			n := fmt.Sprintf("n%d", i)
			// Every other value keeps its top bits, so a 64-bit unsigned
			// name often has bit 63 set.
			e := wrap(new(big.Int).SetUint64(r.Uint64()>>uint(r.Intn(2)*r.Intn(64))), w, signed)
			g.names[n], env[n] = e, e.bits()
			if signed {
				g.signed = append(g.signed, n)
			} else {
				g.uns = append(g.uns, n)
			}
		}
		res := bitsEnv(env)
		for k := 0; k < 10; k++ {
			signed := r.Intn(2) == 0
			n, want := g.tree(signed, 3)
			got, err := EvalBits(n, res)
			if err != nil {
				t.Fatalf("%v: %v", n, err)
			}
			if w := want.bits(); !got.CaseEq(w) || got.Width != w.Width || got.Signed != w.Signed {
				t.Fatalf("%v = %s (width %d, signed %v), want %s (width %d, signed %v)",
					n, got, got.Width, got.Signed, w, w.Width, w.Signed)
			}
			m, other := g.tree(signed, 2)
			u, uz := g.leaf(false)
			for _, c := range []struct {
				rhs  Node
				want bool
			}{
				{numNode{v: eval.Make(0, 1, false)}, want.z.Sign() < 0},
				{m, want.z.Cmp(other.z) < 0},
				{u, want.z.Cmp(uz.z) < 0},
			} {
				lt := binNode{op: "<", a: n, b: c.rhs}
				got, err := EvalBits(lt, res)
				if err != nil {
					t.Fatalf("%v: %v", lt, err)
				}
				if got.Truth() != boolTri(c.want) {
					t.Fatalf("%v = %s, want %v", lt, got, c.want)
				}
			}
		}
	}
}

// xSoundNames are the names the x-soundness checks read, by width: p
// is 8 bits wide, q 7 (an amount that reaches 64 and more) and r 4.
var xSoundNames = map[string]int{"p": 8, "q": 7, "r": 4}

// xSoundBinOps are the binary operators the x-soundness checks draw
// from: all but === and !==, which compare x literally.
var xSoundBinOps = []string{
	"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
	"&", "|", "^", "<<", ">>", "&&", "||",
}

// xSoundTree builds a random tree over xSoundNames and literals of up to
// 7 bits, with xSoundBinOps, !, ~ and ?:.
func xSoundTree(r *rand.Rand, depth int) Node {
	if depth <= 0 || r.Intn(5) == 0 {
		if r.Intn(4) == 0 {
			return numNode{v: eval.Make(r.Uint64(), 1+r.Intn(7), false)}
		}
		return nameNode{name: []string{"p", "q", "r"}[r.Intn(3)]}
	}
	switch r.Intn(10) {
	case 0:
		return unaryNode{op: []string{"!", "~"}[r.Intn(2)], x: xSoundTree(r, depth-1)}
	case 1:
		return ternaryNode{cond: xSoundTree(r, depth-1), t: xSoundTree(r, depth-1), f: xSoundTree(r, depth-1)}
	}
	return binNode{op: xSoundBinOps[r.Intn(len(xSoundBinOps))], a: xSoundTree(r, depth-1), b: xSoundTree(r, depth-1)}
}

// xSoundEnv gives each of xSoundNames its bits of vals and of xs, p's
// in the low byte, q's in the 7 bits above, r's in the 4 above those;
// only the lowest 6 set bits of xs count, so an environment has at
// most 64 concretizations.
func xSoundEnv(vals, xs uint64) map[string]val.Bits {
	for bits.OnesCount64(xs) > 6 {
		xs &^= 1 << (63 - bits.LeadingZeros64(xs))
	}
	env := map[string]val.Bits{}
	shift := 0
	for _, name := range []string{"p", "q", "r"} {
		w := xSoundNames[name]
		env[name] = val.FromPlanes([]uint64{vals >> shift}, []uint64{xs >> shift}, w)
		shift += w
	}
	return env
}

// checkXSound evaluates n over env, whose names carry x bits, and over
// each concretization of those bits. Every known bit of the four-state
// result must be known, and the same, in every concrete result; the
// two compare over the narrower width, since a ?: under an unknown
// selector may widen. A tree reading a name env lacks is skipped.
func checkXSound(n Node, env map[string]val.Bits) error {
	want, err := EvalBits(n, bitsEnv(env))
	if err != nil {
		return nil
	}
	type xbit struct {
		name string
		i    int
	}
	var xs []xbit
	for _, name := range []string{"p", "q", "r"} {
		for i := 0; i < env[name].Width; i++ {
			if _, x := env[name].Bit(i); x {
				xs = append(xs, xbit{name, i})
			}
		}
	}
	for c := 0; c < 1<<len(xs); c++ {
		concrete := map[string]val.Bits{}
		words := map[string]uint64{}
		for name, b := range env {
			words[name] = b.V0 &^ b.X0
		}
		for k, xb := range xs {
			words[xb.name] |= uint64(c>>k&1) << xb.i
		}
		for name, w := range words {
			concrete[name] = val.FromUint64(w, env[name].Width)
		}
		got, err := EvalBits(n, bitsEnv(concrete))
		if err != nil {
			return fmt.Errorf("%v: %v over %v", n, err, concrete)
		}
		for i := 0; i < min(want.Width, got.Width); i++ {
			wv, wx := want.Bit(i)
			if gv, gx := got.Bit(i); !wx && (gx || gv != wv) {
				return fmt.Errorf("%v: bit %d of %s (over %v) is known, but %s over %v", n, i, want, env, got, concrete)
			}
		}
	}
	return nil
}

// TestEvalBitsXSound pins the four-state evaluator's x-soundness: an x
// bit in an input stands for either value, so a result bit EvalBits
// reports known must come out the same whichever values the x bits
// take. Random trees over 8-, 7- and 4-bit names that carry x bits
// exercise every operator but === and !==.
func TestEvalBitsXSound(t *testing.T) {
	r := rand.New(rand.NewSource(20261020))
	trees := 20000
	if testing.Short() {
		trees = 2000
	}
	for trial := 0; trial < trees; trial++ {
		n := xSoundTree(r, 4)
		if err := checkXSound(n, xSoundEnv(r.Uint64(), r.Uint64()&r.Uint64()&r.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzEvalBitsXSound is the coverage-guided form of TestEvalBitsXSound:
// a fuzz-chosen source over the names p, q and r, with their values and
// x masks packed as xSoundEnv reads them. Sources that do not parse,
// run longer than 128 bytes or use === or !== are skipped.
func FuzzEvalBitsXSound(f *testing.F) {
	f.Add("p << q", uint64(0x40<<8|0x0d), uint64(0x02))
	f.Add("(p + q) * r > p - r", uint64(0x1234), uint64(0x0110))
	f.Add("p[2] ? q : r", uint64(0x7f0f), uint64(0x4))
	f.Add("!(p & q) || r ^ 4'hz", uint64(0x5a5a), uint64(0x8001))
	f.Add("p / r % q >> 2 << 7'd64", uint64(0xffff), uint64(0x30))
	f.Add("~p == q && r <= 3 || p != 8'b1x0z", uint64(0x1ff), uint64(0x100))
	f.Fuzz(func(t *testing.T, src string, vals, xs uint64) {
		if len(src) > 128 || strings.Contains(src, "===") || strings.Contains(src, "!==") {
			return
		}
		n, err := Parse(src)
		if err != nil {
			return
		}
		if err := checkXSound(n, xSoundEnv(vals, xs)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEvalBitsReadsOnlyDeps pins the invariant an armed expression's
// strict name lookup rests on: over random trees, whose names carry x
// bits or not, EvalBits on the parsed tree resolves only names in its
// Program.Deps. Folding drops a name only from a side EvalBits never
// evaluates, the dead side of a constant &&, || or ?: selector.
func TestEvalBitsReadsOnlyDeps(t *testing.T) {
	r := rand.New(rand.NewSource(20261021))
	names := []string{"a", "b", "c", "d"}
	dropped := 0
	for trial := 0; trial < 20000; trial++ {
		n := randNode(r, names, 4)
		p := newProgram(n)
		if len(p.Deps) < len(Names(n)) {
			dropped++
		}
		env := map[string]val.Bits{}
		for _, name := range names {
			w := 1 + r.Intn(12)
			env[name] = val.FromPlanes([]uint64{r.Uint64()}, []uint64{r.Uint64() & r.Uint64() * uint64(r.Intn(2))}, w)
		}
		_, err := EvalBits(n, BitsResolverFunc(func(name string) (val.Bits, error) {
			if _, ok := slices.BinarySearch(p.Deps, name); !ok {
				return val.Bits{}, fmt.Errorf("read %q outside Deps %v", name, p.Deps)
			}
			return env[name], nil
		}))
		if err != nil {
			t.Fatalf("%v: %v", n, err)
		}
	}
	if dropped == 0 {
		t.Fatal("folding dropped no name from any tree; test is vacuous")
	}
	t.Logf("folding dropped a name from %d of 20000 trees", dropped)
}
