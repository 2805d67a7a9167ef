// Package val implements the four-state, arbitrary-width value plane
// shared by every layer of the value path: VCD parse and store, replay
// state, the VPI boundary, expression evaluation, and the wire.
//
// A value is two packed bit planes over a parameterized width. The X
// plane marks unknown bits; for an unknown bit the value-plane bit
// distinguishes Verilog x (0) from z (1), mirroring the VPI aval/bval
// encoding, so case equality (===) and rendering keep the x/z
// distinction while every arithmetic and logical operator treats both
// as "unknown". Values at or below 64 bits live entirely in two inline
// words (V0/X0) — constructing, copying, and comparing them allocates
// nothing, which is what lets the two-state fast path stay fast.
package val

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Bits is a four-state value of Width bits. V0/X0 hold bits 0..63;
// VH/XH hold bits 64.. (word i of the full plane is word i-1 of the
// slice). Invariants maintained by every constructor and operator:
//
//   - Bits above Width are zero in both planes.
//   - Width > 64 ⇒ VH has len (Width+63)/64 - 1. XH is either the
//     same length or nil (a fully known wide value); use XWord, which
//     treats a nil XH as all-known. Aliased values (timelines hand
//     out sub-slices of their packed planes) rely on this, so plane
//     slices reachable through a Bits must never be mutated.
//   - A bit with X-plane 0 is known; X-plane 1 and value-plane 0 is x;
//     X-plane 1 and value-plane 1 is z.
//
// The zero Bits is a known 0 of width 0; Normalize widths it to 1.
//
// Signed records that the value is signed: it came from a signed (SInt)
// signal, or from signed arithmetic. Lowering it back onto the
// two-state fast path (eval.FromBits) keeps signed comparisons, shifts
// and arithmetic. The arithmetic operators and Cmp follow it the way
// eval.Prim does (see Add), and Sar is the signed right shift; every
// other operator ignores it and returns unsigned results, as do
// rendering and the wire encoding.
type Bits struct {
	Width  int
	V0, X0 uint64
	VH, XH []uint64
	Signed bool
}

// Words returns the number of 64-bit words each plane occupies.
func (b Bits) Words() int {
	if b.Width <= 64 {
		return 1
	}
	return (b.Width + 63) / 64
}

// Word returns word i of the value plane.
func (b Bits) Word(i int) uint64 {
	if i == 0 {
		return b.V0
	}
	if i-1 >= len(b.VH) {
		return 0
	}
	return b.VH[i-1]
}

// XWord returns word i of the X plane; a nil XH reads as all-known.
func (b Bits) XWord(i int) uint64 {
	if i == 0 {
		return b.X0
	}
	if i-1 >= len(b.XH) {
		return 0
	}
	return b.XH[i-1]
}

// topMask returns the valid-bit mask for the highest word.
func topMask(width int) uint64 {
	if r := width & 63; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// maskTo zeroes bits above width in both planes (in place on the
// header copy; high slices are assumed sized for width already).
func (b *Bits) maskTo() {
	m := topMask(b.Width)
	if b.Width <= 64 {
		if b.Width == 0 {
			b.Width = 1
			m = 1
		}
		b.V0 &= m
		b.X0 &= m
		b.VH, b.XH = nil, nil
		return
	}
	k := len(b.VH)
	b.VH[k-1] &= m
	b.XH[k-1] &= m
}

// make returns an all-zero known Bits of the given width with planes
// allocated.
func alloc(width int) Bits {
	if width < 1 {
		width = 1
	}
	b := Bits{Width: width}
	if width > 64 {
		k := (width+63)/64 - 1
		b.VH = make([]uint64, k)
		b.XH = make([]uint64, k)
	}
	return b
}

// FromUint64 returns a known value of the given width holding v's low
// width bits.
func FromUint64(v uint64, width int) Bits {
	b := alloc(width)
	b.V0 = v
	b.maskTo()
	return b
}

// FromWords returns a known value of the given width from value-plane
// words (word 0 first). Missing words are zero.
func FromWords(words []uint64, width int) Bits {
	b := alloc(width)
	if len(words) > 0 {
		b.V0 = words[0]
	}
	for i := 1; i < b.Words() && i < len(words); i++ {
		b.VH[i-1] = words[i]
	}
	b.maskTo()
	return b
}

// FromPlanes returns a value of the given width from raw value- and
// X-plane words (word 0 first). xwords may be nil for a known value.
func FromPlanes(vwords, xwords []uint64, width int) Bits {
	b := FromWords(vwords, width)
	if len(xwords) > 0 {
		b.X0 = xwords[0]
		for i := 1; i < b.Words() && i < len(xwords); i++ {
			b.XH[i-1] = xwords[i]
		}
		b.maskTo()
	}
	return b
}

// Unknown returns an all-x value of the given width.
func Unknown(width int) Bits {
	b := alloc(width)
	b.X0 = ^uint64(0)
	for i := range b.XH {
		b.XH[i] = ^uint64(0)
	}
	b.maskTo()
	return b
}

// HasX reports whether any bit is unknown (x or z).
func (b Bits) HasX() bool {
	if b.X0 != 0 {
		return true
	}
	for _, w := range b.XH {
		if w != 0 {
			return true
		}
	}
	return false
}

// IsWide reports whether the value needs more than one plane word.
func (b Bits) IsWide() bool { return b.Width > 64 }

// AsUint64 returns the value as a uint64 when it is fully known and
// its set bits fit in 64 bits; ok is false otherwise.
func (b Bits) AsUint64() (uint64, bool) {
	if b.HasX() {
		return 0, false
	}
	for _, w := range b.VH {
		if w != 0 {
			return 0, false
		}
	}
	return b.V0, true
}

// setBit sets bit i to the given state (in place; planes allocated).
func (b *Bits) setBit(i int, v, x bool) {
	var vp, xp *uint64
	if i < 64 {
		vp, xp = &b.V0, &b.X0
	} else {
		vp, xp = &b.VH[i/64-1], &b.XH[i/64-1]
	}
	m := uint64(1) << (i & 63)
	if v {
		*vp |= m
	}
	if x {
		*xp |= m
	}
}

// Bit returns bit i as (value, unknown).
func (b Bits) Bit(i int) (v, x bool) {
	if i < 0 || i >= b.Width {
		return false, false
	}
	w, m := i/64, uint64(1)<<(i&63)
	return b.Word(w)&m != 0, b.XWord(w)&m != 0
}

// ParseVCD parses a VCD binary vector literal (MSB-first characters
// from 01xXzZ) into a value of the given declared width. Verilog
// left-extension applies when the literal is narrower than width:
// x-extend when the leading character is x, z-extend for z, otherwise
// zero-extend. Literals wider than width keep their low width bits.
// width <= 0 uses the literal's own length.
func ParseVCD(lit string, width int) (Bits, error) {
	if lit == "" {
		return Bits{}, fmt.Errorf("val: empty vector literal")
	}
	if width <= 0 {
		width = len(lit)
	}
	b := alloc(width)
	// lit[0] is the MSB; bit i of the value is lit[len-1-i].
	n := len(lit)
	for i := 0; i < width && i < n; i++ {
		switch c := lit[n-1-i]; c {
		case '0':
		case '1':
			b.setBit(i, true, false)
		case 'x', 'X':
			b.setBit(i, false, true)
		case 'z', 'Z':
			b.setBit(i, true, true)
		default:
			return Bits{}, fmt.Errorf("val: bad vector digit %q", c)
		}
	}
	if n < width {
		switch lit[0] {
		case 'x', 'X':
			for i := n; i < width; i++ {
				b.setBit(i, false, true)
			}
		case 'z', 'Z':
			for i := n; i < width; i++ {
				b.setBit(i, true, true)
			}
		}
	}
	return b, nil
}

// Resize returns b at the given width: truncated to the low bits, or
// zero-extended (known 0s) when widening — VCD left-extension is the
// parser's job, not Resize's.
func (b Bits) Resize(width int) Bits {
	if width == b.Width {
		return b
	}
	r := alloc(width)
	k := r.Words()
	if b.Words() < k {
		k = b.Words()
	}
	r.V0, r.X0 = b.V0, b.X0
	for i := 1; i < k; i++ {
		r.VH[i-1] = b.Word(i)
		r.XH[i-1] = b.XWord(i)
	}
	r.maskTo()
	return r
}

// CaseEq is Verilog === : bit-for-bit identity over all four states,
// always a known 0/1 result.
func (b Bits) CaseEq(o Bits) bool {
	w := b.Width
	if o.Width > w {
		w = o.Width
	}
	a, c := b.Resize(w), o.Resize(w)
	for i := 0; i < a.Words(); i++ {
		if a.Word(i) != c.Word(i) || a.XWord(i) != c.XWord(i) {
			return false
		}
	}
	return true
}

// Tri is a three-valued truth result.
type Tri int8

// Three-valued logic results: an unknown verdict means some X bit
// kept the comparison from resolving.
const (
	False Tri = iota
	True
	Undef
)

// Truth is Verilog truthiness: true if any known-1 bit exists; false
// if fully known with no 1s; unknown otherwise.
func (b Bits) Truth() Tri {
	anyX := false
	for i := 0; i < b.Words(); i++ {
		if b.Word(i)&^b.XWord(i) != 0 {
			return True
		}
		if b.XWord(i) != 0 {
			anyX = true
		}
	}
	if anyX {
		return Undef
	}
	return False
}

// Eq is Verilog == : false when any bit known in both operands
// differs; otherwise unknown if any X is present; otherwise true.
func (b Bits) Eq(o Bits) Tri {
	w := b.Width
	if o.Width > w {
		w = o.Width
	}
	a, c := b.Resize(w), o.Resize(w)
	anyX := false
	for i := 0; i < a.Words(); i++ {
		known := ^(a.XWord(i) | c.XWord(i))
		if (a.Word(i)^c.Word(i))&known != 0 {
			return False
		}
		if a.XWord(i)|c.XWord(i) != 0 {
			anyX = true
		}
	}
	if anyX {
		return Undef
	}
	return True
}

// Cmp orders two values: -1, 0, or +1, with known=false when any X bit
// is present. The order is signed when b is signed (each operand by
// its own sign, as eval.Prim orders), unsigned otherwise.
func (b Bits) Cmp(o Bits) (int, bool) {
	if b.HasX() || o.HasX() {
		return 0, false
	}
	if b.Signed {
		return b.bigInt(true).Cmp(o.bigInt(true)), true
	}
	w := b.Width
	if o.Width > w {
		w = o.Width
	}
	a, c := b.Resize(w), o.Resize(w)
	for i := a.Words() - 1; i >= 0; i-- {
		aw, cw := a.Word(i), c.Word(i)
		if aw != cw {
			if aw < cw {
				return -1, true
			}
			return 1, true
		}
	}
	return 0, true
}

// binWide applies a per-word bitwise op with Verilog X rules. fn
// computes (value, x) planes for one word triplet-pair.
func binWide(a, c Bits, fn func(av, ax, cv, cx uint64) (uint64, uint64)) Bits {
	w := a.Width
	if c.Width > w {
		w = c.Width
	}
	a, c = a.Resize(w), c.Resize(w)
	r := alloc(w)
	for i := 0; i < r.Words(); i++ {
		v, x := fn(a.Word(i), a.XWord(i), c.Word(i), c.XWord(i))
		if i == 0 {
			r.V0, r.X0 = v, x
		} else {
			r.VH[i-1], r.XH[i-1] = v, x
		}
	}
	r.maskTo()
	return r
}

// And is per-bit &: a known 0 on either side dominates any X.
func (b Bits) And(o Bits) Bits {
	return binWide(b, o, func(av, ax, cv, cx uint64) (uint64, uint64) {
		// A bit is known iff both inputs known, or either is a known 0.
		zeroA := ^av & ^ax
		zeroC := ^cv & ^cx
		x := (ax | cx) &^ (zeroA | zeroC)
		v := (av &^ ax) & (cv &^ cx)
		return v, x
	})
}

// Or is per-bit |: a known 1 on either side dominates any X.
func (b Bits) Or(o Bits) Bits {
	return binWide(b, o, func(av, ax, cv, cx uint64) (uint64, uint64) {
		oneA := av &^ ax
		oneC := cv &^ cx
		x := (ax | cx) &^ (oneA | oneC)
		v := (oneA | oneC) &^ x
		return v, x
	})
}

// Xor is per-bit ^: any X input makes the bit x.
func (b Bits) Xor(o Bits) Bits {
	return binWide(b, o, func(av, ax, cv, cx uint64) (uint64, uint64) {
		x := ax | cx
		v := ((av &^ ax) ^ (cv &^ cx)) &^ x
		return v, x
	})
}

// Not is per-bit ~ at b's width; x bits stay x.
func (b Bits) Not() Bits {
	r := alloc(b.Width)
	for i := 0; i < r.Words(); i++ {
		x := b.XWord(i)
		v := ^b.Word(i) &^ x
		if i == 0 {
			r.V0, r.X0 = v, x
		} else {
			r.VH[i-1], r.XH[i-1] = v, x
		}
	}
	r.maskTo()
	return r
}

// The arithmetic operators follow eval.Prim's rules at any width: the
// operation is signed when the receiver is, each operand then counts
// by its own sign (otherwise every operand counts unsigned), and the
// result, signed like the operation, is the exact value truncated to
// Prim's result width in two's complement; a zero divisor yields 0, as
// in Prim. Any unknown input bit makes the whole result x (Verilog
// arithmetic X-propagation).

// arith is one arithmetic operator at the given result width: op
// computes over the integer values of b and o into its first argument.
func (b Bits) arith(o Bits, width int, op func(x, y *big.Int)) Bits {
	var r Bits
	if b.HasX() || o.HasX() {
		r = Unknown(width)
	} else {
		x := b.bigInt(b.Signed)
		op(x, o.bigInt(b.Signed))
		r = fromBig(x, width)
	}
	r.Signed = b.Signed
	return r
}

// Add returns b + o at width max(widths)+1.
func (b Bits) Add(o Bits) Bits {
	return b.arith(o, max(b.Width, o.Width)+1, func(x, y *big.Int) { x.Add(x, y) })
}

// Sub returns b - o at width max(widths)+1.
func (b Bits) Sub(o Bits) Bits {
	return b.arith(o, max(b.Width, o.Width)+1, func(x, y *big.Int) { x.Sub(x, y) })
}

// Mul returns b * o at width b.Width+o.Width.
func (b Bits) Mul(o Bits) Bits {
	return b.arith(o, b.Width+o.Width, func(x, y *big.Int) { x.Mul(x, y) })
}

// Div returns b / o, truncated toward zero, at b's width (one more bit
// when signed: the quotient of the most negative value by -1).
func (b Bits) Div(o Bits) Bits {
	w := b.Width
	if b.Signed {
		w++
	}
	return b.arith(o, w, func(x, y *big.Int) {
		if y.Sign() == 0 {
			x.SetInt64(0)
			return
		}
		x.Quo(x, y)
	})
}

// Rem returns b % o, signed like the dividend, at width min(widths).
func (b Bits) Rem(o Bits) Bits {
	return b.arith(o, min(b.Width, o.Width), func(x, y *big.Int) {
		if y.Sign() == 0 {
			x.SetInt64(0)
			return
		}
		x.Rem(x, y)
	})
}

// Neg returns -b, b counting by its own sign, at width b.Width+1,
// signed.
func (b Bits) Neg() Bits {
	return Bits{Width: 1, Signed: true}.Sub(b)
}

// bigInt is a known value's integer value: by its sign when signed is
// set and b is signed, else its bits as they stand.
func (b Bits) bigInt(signed bool) *big.Int {
	buf := make([]byte, 8*b.Words())
	for i := 0; i < b.Words(); i++ {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], b.Word(i))
	}
	z := new(big.Int).SetBytes(buf)
	if signed && b.Signed && b.Width > 0 && z.Bit(b.Width-1) == 1 {
		z.Sub(z, new(big.Int).Lsh(big.NewInt(1), uint(b.Width)))
	}
	return z
}

// fromBig is z in two's complement at the given width, a known value.
func fromBig(z *big.Int, width int) Bits {
	r := alloc(width)
	z.Mod(z, new(big.Int).Lsh(big.NewInt(1), uint(r.Width)))
	buf := z.FillBytes(make([]byte, 8*r.Words()))
	r.V0 = binary.BigEndian.Uint64(buf[len(buf)-8:])
	for i := range r.VH {
		r.VH[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+2):])
	}
	return r
}

// Shl shifts left by a known amount at b's width (bits shifted past
// Width are dropped). An amount ≥ Width yields known 0.
func (b Bits) Shl(n int) Bits {
	r := alloc(b.Width)
	if n >= b.Width || n < 0 {
		return r
	}
	word, bit := n/64, uint(n&63)
	for i := r.Words() - 1; i >= word; i-- {
		v := b.Word(i-word) << bit
		x := b.XWord(i-word) << bit
		if bit != 0 && i-word > 0 {
			v |= b.Word(i-word-1) >> (64 - bit)
			x |= b.XWord(i-word-1) >> (64 - bit)
		}
		if i == 0 {
			r.V0, r.X0 = v, x
		} else {
			r.VH[i-1], r.XH[i-1] = v, x
		}
	}
	r.maskTo()
	return r
}

// Shr shifts right logically by a known amount at b's width.
func (b Bits) Shr(n int) Bits {
	r := alloc(b.Width)
	if n >= b.Width || n < 0 {
		return r
	}
	word, bit := n/64, uint(n&63)
	k := r.Words()
	for i := 0; i+word < k; i++ {
		v := b.Word(i+word) >> bit
		x := b.XWord(i+word) >> bit
		if bit != 0 && i+word+1 < k {
			v |= b.Word(i+word+1) << (64 - bit)
			x |= b.XWord(i+word+1) << (64 - bit)
		}
		if i == 0 {
			r.V0, r.X0 = v, x
		} else {
			r.VH[i-1], r.XH[i-1] = v, x
		}
	}
	r.maskTo()
	return r
}

// Sar shifts right arithmetically by a known amount at b's width: the
// vacated bits copy the top (sign) bit, whatever its state. The result
// is signed.
func (b Bits) Sar(n int) Bits {
	r := b.Shr(n)
	r.Signed = true
	if sv, sx := b.Bit(b.Width - 1); sv || sx {
		for i := max(b.Width-n, 0); i < b.Width; i++ {
			r.setBit(i, sv, sx)
		}
	}
	return r
}

// Slice returns bits [hi:lo] as a value of width hi-lo+1. Bits above
// b.Width read as known 0 (the forgiving zero-extension the expression
// layer's bit-select already applies).
func (b Bits) Slice(hi, lo int) Bits {
	if hi < lo || lo < 0 {
		return Bits{Width: 1}
	}
	return b.Shr(lo).Resize(hi - lo + 1)
}

// Mux merges two same-role values for an unknown ternary condition:
// bits where the arms agree (and are known) keep their value, all
// other bits are x. Result width is max(widths).
func Mux(a, c Bits) Bits {
	return binWide(a, c, func(av, ax, cv, cx uint64) (uint64, uint64) {
		x := ax | cx | (av ^ cv)
		return av &^ x, x
	})
}

// RedOr is the | reduction: 1 if any known-1 bit, 0 if fully known
// zero, x otherwise.
func (b Bits) RedOr() Tri { return b.Truth() }

// RedAnd is the & reduction: 0 if any known-0 bit, 1 if all bits are
// known 1, x otherwise.
func (b Bits) RedAnd() Tri {
	anyX := false
	for i := 0; i < b.Words(); i++ {
		valid := planeMask(b.Width, i)
		if valid == 0 {
			continue
		}
		if (^b.Word(i)&^b.XWord(i))&valid != 0 {
			return False
		}
		if b.XWord(i)&valid != 0 {
			anyX = true
		}
	}
	if anyX {
		return Undef
	}
	return True
}

// RedXor is the ^ reduction: x if any X bit, else parity.
func (b Bits) RedXor() Tri {
	if b.HasX() {
		return Undef
	}
	p := 0
	for i := 0; i < b.Words(); i++ {
		p ^= bits.OnesCount64(b.Word(i)) & 1
	}
	if p != 0 {
		return True
	}
	return False
}

// planeMask returns the valid-bit mask of plane word i for a value of
// the given width.
func planeMask(width, i int) uint64 {
	lo := i * 64
	if lo >= width {
		return 0
	}
	if width-lo >= 64 {
		return ^uint64(0)
	}
	return (1 << (width - lo)) - 1
}

// TriBits renders a Tri as a 1-bit Bits.
func TriBits(t Tri) Bits {
	switch t {
	case True:
		return Bits{Width: 1, V0: 1}
	case Undef:
		return Bits{Width: 1, X0: 1}
	}
	return Bits{Width: 1}
}

// String renders the value: fully known values at or below 64 bits as
// decimal, known wide values as W'h hex, and any value with unknown
// bits as W'b binary with x/z digits — the 8'b1x0z style the DAP
// variable pane shows.
func (b Bits) String() string {
	if !b.HasX() {
		if v, ok := b.AsUint64(); ok {
			return fmt.Sprintf("%d", v)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d'h", b.Width)
		started := false
		for i := b.Words() - 1; i >= 0; i-- {
			if !started {
				if w := b.Word(i); w != 0 || i == 0 {
					fmt.Fprintf(&sb, "%x", w)
					started = true
				}
				continue
			}
			fmt.Fprintf(&sb, "%016x", b.Word(i))
		}
		return sb.String()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'b", b.Width)
	for i := b.Width - 1; i >= 0; i-- {
		v, x := b.Bit(i)
		switch {
		case x && v:
			sb.WriteByte('z')
		case x:
			sb.WriteByte('x')
		case v:
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
