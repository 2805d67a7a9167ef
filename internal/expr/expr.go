// Package expr implements the small C-like expression language used by
// the debugger: enable conditions stored in the symbol table (rendered
// by ir.RenderInfix) and user-supplied conditional-breakpoint / watch
// expressions both parse into an AST. A condition has exactly two
// evaluators: the whole-schedule fused program (Fuse → eval.MultiProg)
// that runs every armed condition once per clock edge, and EvalBits,
// the general four-state evaluator behind everything else.
package expr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/val"
)

// Node is a parsed expression node.
type Node interface {
	// evalBits computes the node's value with four-state semantics (see
	// evalbits.go); subtrees whose operands are all fully known and at
	// most 64 bits wide run through the exact same eval.Prim calls as
	// the fused program, so the two evaluators are bit-identical on
	// two-state inputs.
	evalBits(r BitsResolver) (bval, error)
	// Names reports the identifiers the expression references.
	names(into map[string]bool)
	String() string
}

// Names returns the sorted set of identifiers referenced by the node.
func Names(n Node) []string {
	set := map[string]bool{}
	n.names(set)
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

type numNode struct {
	v eval.Value
}

func (n numNode) names(map[string]bool) {}
func (n numNode) String() string        { return n.v.String() }

// xnumNode is a literal the two-state fast path cannot represent:
// wider than 64 bits or carrying x/z digits (128'hdead_beef, 8'b1x0z).
// Fuse rejects a condition holding one, which routes the whole
// condition to the general four-state evaluator.
type xnumNode struct {
	b val.Bits
}

func (n xnumNode) names(map[string]bool) {}
func (n xnumNode) String() string        { return n.b.String() }

type nameNode struct {
	name string
}

func (n nameNode) names(m map[string]bool) { m[n.name] = true }
func (n nameNode) String() string          { return n.name }

type unaryNode struct {
	op string
	x  Node
}

func (n unaryNode) names(m map[string]bool) { n.x.names(m) }
func (n unaryNode) String() string          { return "(" + n.op + n.x.String() + ")" }

// apply is the two-state operator body: the four-state evaluator's
// known-operand specialization, computing what the fuser's OpNot /
// OpNeg / compare-with-zero instructions compute.
func (n unaryNode) apply(v eval.Value) (eval.Value, error) {
	switch n.op {
	case "~":
		return eval.Prim(ir.OpNot, nil, []eval.Value{v})
	case "!":
		if v.IsTrue() {
			return eval.Make(0, 1, false), nil
		}
		return eval.Make(1, 1, false), nil
	case "-":
		return eval.Prim(ir.OpNeg, nil, []eval.Value{v})
	}
	return eval.Value{}, fmt.Errorf("expr: unknown unary %q", n.op)
}

type binNode struct {
	op   string
	a, b Node
}

func (n binNode) names(m map[string]bool) { n.a.names(m); n.b.names(m) }
func (n binNode) String() string {
	return "(" + n.a.String() + " " + n.op + " " + n.b.String() + ")"
}

var binOps = map[string]ir.PrimOp{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpRem,
	"<": ir.OpLt, "<=": ir.OpLeq, ">": ir.OpGt, ">=": ir.OpGeq,
	"==": ir.OpEq, "!=": ir.OpNeq,
	// On two-state values case equality coincides with logical equality
	// (there are no x/z bits to distinguish); the four-state evaluator
	// gives === its full bit-for-bit semantics.
	"===": ir.OpEq, "!==": ir.OpNeq,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor,
	"<<": ir.OpDshl, ">>": ir.OpDshr,
}

// applyBin applies a non-short-circuit binary operator to two-state
// values: the four-state evaluator's known-operand specialization,
// matching the fuser's lowering (for <<, a mask of the amount to 6
// bits, then the word instruction eval.LowerPrim selects) so the two
// stay bit-identical.
func applyBin(opText string, a, b eval.Value) (eval.Value, error) {
	op, ok := binOps[opText]
	if !ok {
		return eval.Value{}, fmt.Errorf("expr: unknown operator %q", opText)
	}
	// Dynamic shifts in this language cap the amount operand at 6 bits
	// worth of magnitude to satisfy eval's width model.
	if op == ir.OpDshl {
		b = eval.Make(b.Bits, minInt(b.Width, 6), false)
	}
	return eval.Prim(op, nil, []eval.Value{a, b})
}

// signedReadsU64 reports a signed arithmetic or ordering operation
// whose second operand is unsigned and 64 bits wide. eval.Prim, and the
// word instruction set after it, read that operand through Value.Int,
// where bit 63 counts as a sign: EvalBits computes such a node exactly
// in the general domain, and the fuser does not fuse it.
func signedReadsU64(op string, a, b eval.Value) bool {
	if !a.Signed || b.Signed || b.Width != 64 {
		return false
	}
	switch op {
	case "+", "-", "*", "/", "%", "<", "<=", ">", ">=":
		return true
	}
	return false
}

type ternaryNode struct {
	cond, t, f Node
}

func (n ternaryNode) names(m map[string]bool) { n.cond.names(m); n.t.names(m); n.f.names(m) }
func (n ternaryNode) String() string {
	return "(" + n.cond.String() + " ? " + n.t.String() + " : " + n.f.String() + ")"
}

type bitsNode struct {
	x      Node
	hi, lo int
}

func (n bitsNode) names(m map[string]bool) { n.x.names(m) }
func (n bitsNode) String() string {
	if n.hi == n.lo {
		return fmt.Sprintf("%s[%d]", n.x, n.hi)
	}
	return fmt.Sprintf("%s[%d:%d]", n.x, n.hi, n.lo)
}

// apply is the two-state bit-select body: the four-state evaluator's
// known-operand specialization, matching the fuser's OpShr-and-mask.
func (n bitsNode) apply(v eval.Value) (eval.Value, error) {
	if n.hi >= v.Width {
		// Be forgiving about widths the resolver reports: extract what
		// exists, zero-extend the rest.
		return eval.Make(v.Bits>>uint(n.lo), n.hi-n.lo+1, false), nil
	}
	return eval.Prim(ir.OpBits, []int{n.hi, n.lo}, []eval.Value{v})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Parse parses one expression.
func Parse(src string) (Node, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.lex.err; err != nil {
		return nil, err
	}
	n, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.lex.peek().kind != tkEOF {
		return nil, fmt.Errorf("expr: unexpected trailing input %q", p.lex.peek().text)
	}
	return n, nil
}

// MustParse is Parse, panicking on error; for statically known inputs.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	lex *lexer
}

// Precedence climbing, lowest first.
var precedence = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!=", "===", "!=="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseTernary() (Node, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.lex.peek().kind == tkOp && p.lex.peek().text == "?" {
		p.lex.next()
		t, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		if tok := p.lex.next(); tok.kind != tkOp || tok.text != ":" {
			return nil, fmt.Errorf("expr: expected ':' in ternary, got %q", tok.text)
		}
		f, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return ternaryNode{cond: cond, t: t, f: f}, nil
	}
	return cond, nil
}

func (p *parser) parseBinary(level int) (Node, error) {
	if level >= len(precedence) {
		return p.parseUnary()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		tok := p.lex.peek()
		if tok.kind != tkOp || !contains(precedence[level], tok.text) {
			return left, nil
		}
		p.lex.next()
		right, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		left = binNode{op: tok.text, a: left, b: right}
	}
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

func (p *parser) parseUnary() (Node, error) {
	tok := p.lex.peek()
	if tok.kind == tkOp && (tok.text == "~" || tok.text == "!" || tok.text == "-") {
		p.lex.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryNode{op: tok.text, x: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Node, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.lex.peek()
		if tok.kind != tkOp || tok.text != "[" {
			return base, nil
		}
		p.lex.next()
		hi, err := bitIndex(p.lex.next())
		if err != nil {
			return nil, err
		}
		lo := hi
		if p.lex.peek().kind == tkOp && p.lex.peek().text == ":" {
			p.lex.next()
			if lo, err = bitIndex(p.lex.next()); err != nil {
				return nil, err
			}
		}
		if tok := p.lex.next(); tok.kind != tkOp || tok.text != "]" {
			return nil, fmt.Errorf("expr: expected ']', got %q", tok.text)
		}
		if lo > hi {
			return nil, fmt.Errorf("expr: bit range [%d:%d] reversed", hi, lo)
		}
		base = bitsNode{x: base, hi: hi, lo: lo}
	}
}

// bitIndex parses one bound of a bit select, a decimal below
// maxLiteralWidth like a sized literal's width, so a slice cannot ask
// for an unbounded plane.
func bitIndex(tok token) (int, error) {
	if tok.kind != tkNum {
		return 0, fmt.Errorf("expr: expected bit index, got %q", tok.text)
	}
	i, err := strconv.Atoi(tok.text)
	if err != nil || i >= maxLiteralWidth {
		return 0, fmt.Errorf("expr: bit index %q out of range", tok.text)
	}
	return i, nil
}

func (p *parser) parsePrimary() (Node, error) {
	tok := p.lex.next()
	switch tok.kind {
	case tkNum:
		if tick := strings.IndexByte(tok.text, '\''); tick >= 0 {
			return parseSizedLiteral(tok.text, tick)
		}
		var v uint64
		var err error
		switch {
		case strings.HasPrefix(tok.text, "0x"), strings.HasPrefix(tok.text, "0X"):
			v, err = strconv.ParseUint(tok.text[2:], 16, 64)
		case strings.HasPrefix(tok.text, "0b"), strings.HasPrefix(tok.text, "0B"):
			v, err = strconv.ParseUint(tok.text[2:], 2, 64)
		default:
			v, err = strconv.ParseUint(tok.text, 10, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("expr: bad number %q", tok.text)
		}
		// Literals get a compact width so bitwise ops behave naturally.
		w := 1
		for (uint64(1)<<uint(w))-1 < v && w < 64 {
			w++
		}
		return numNode{v: eval.Make(v, w, false)}, nil
	case tkName:
		return nameNode{name: tok.text}, nil
	case tkOp:
		if tok.text == "(" {
			inner, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			if tok := p.lex.next(); tok.kind != tkOp || tok.text != ")" {
				return nil, fmt.Errorf("expr: expected ')', got %q", tok.text)
			}
			return inner, nil
		}
	}
	return nil, fmt.Errorf("expr: unexpected token %q", tok.text)
}

// maxLiteralWidth bounds declared sized-literal widths so a typo like
// 99999999'h0 cannot allocate unbounded planes.
const maxLiteralWidth = 1 << 16

// parseSizedLiteral parses a Verilog sized literal (8'b1x0z, 16'hdead,
// 4'd12, 6'o17) whose token text has a ' at index tick. Fully known
// values at or below 64 bits become ordinary two-state literals at
// exactly the declared width — so `sig === 8'hff` compares at width 8
// — while wider literals or ones carrying x/z digits become
// four-state literals only the general evaluator accepts.
func parseSizedLiteral(text string, tick int) (Node, error) {
	size, err := strconv.Atoi(strings.ReplaceAll(text[:tick], "_", ""))
	if err != nil || size < 1 || size > maxLiteralWidth {
		return nil, fmt.Errorf("expr: bad size in literal %q", text)
	}
	if tick+2 > len(text)-1 {
		return nil, fmt.Errorf("expr: sized literal %q has no digits", text)
	}
	base := text[tick+1]
	digits := strings.ReplaceAll(text[tick+2:], "_", "")
	if digits == "" {
		return nil, fmt.Errorf("expr: sized literal %q has no digits", text)
	}
	var b val.Bits
	if base == 'd' || base == 'D' {
		v, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad decimal literal %q", text)
		}
		b = val.FromUint64(v, size)
	} else {
		var perDigit int
		switch base {
		case 'b', 'B':
			perDigit = 1
		case 'o', 'O':
			perDigit = 3
		case 'h', 'H':
			perDigit = 4
		default:
			return nil, fmt.Errorf("expr: unknown base %q in literal %q", string(base), text)
		}
		// Expand each digit to its binary form (x/z digits expand to
		// perDigit unknown bits) and let val.ParseVCD apply Verilog
		// left-extension at the declared width.
		var bin strings.Builder
		for i := 0; i < len(digits); i++ {
			c := digits[i]
			if isXZDigit(c) {
				for k := 0; k < perDigit; k++ {
					bin.WriteByte(c | 0x20)
				}
				continue
			}
			d, err := strconv.ParseUint(string(c), 16, 8)
			if err != nil || d >= 1<<perDigit {
				return nil, fmt.Errorf("expr: bad digit %q in literal %q", string(c), text)
			}
			for k := perDigit - 1; k >= 0; k-- {
				if d&(1<<k) != 0 {
					bin.WriteByte('1')
				} else {
					bin.WriteByte('0')
				}
			}
		}
		var perr error
		b, perr = val.ParseVCD(bin.String(), size)
		if perr != nil {
			return nil, perr
		}
	}
	if v, ok := eval.FromBits(b); ok {
		return numNode{v: v}, nil
	}
	return xnumNode{b: b}, nil
}
