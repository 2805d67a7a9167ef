package val

import "testing"

func TestParseVCDNarrow(t *testing.T) {
	b, err := ParseVCD("1x0z", 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "4'b1x0z" {
		t.Fatalf("String() = %q, want 4'b1x0z", got)
	}
	if !b.HasX() {
		t.Fatal("HasX() = false")
	}
	// bit 0 = z (v=1,x=1), bit 1 = 0, bit 2 = x, bit 3 = 1
	if v, x := b.Bit(0); !v || !x {
		t.Fatalf("bit 0 = (%v,%v), want z", v, x)
	}
	if v, x := b.Bit(3); !v || x {
		t.Fatalf("bit 3 = (%v,%v), want 1", v, x)
	}
}

func TestParseVCDExtension(t *testing.T) {
	// Leading 1 zero-extends; leading x x-extends; leading z z-extends.
	b, _ := ParseVCD("1", 4)
	if got := b.String(); got != "1" {
		t.Fatalf("zero-extend: %q", got)
	}
	b, _ = ParseVCD("x1", 4)
	if got := b.String(); got != "4'bxxx1" {
		t.Fatalf("x-extend: %q", got)
	}
	b, _ = ParseVCD("z0", 4)
	if got := b.String(); got != "4'bzzz0" {
		t.Fatalf("z-extend: %q", got)
	}
}

func TestParseVCDWide(t *testing.T) {
	lit := "1"
	for i := 0; i < 127; i++ {
		lit += "0"
	}
	b, err := ParseVCD(lit, 128) // bit 127 set
	if err != nil {
		t.Fatal(err)
	}
	if b.Width != 128 || b.Words() != 2 {
		t.Fatalf("width %d words %d", b.Width, b.Words())
	}
	if b.Word(1) != 1<<63 || b.Word(0) != 0 {
		t.Fatalf("words = %x,%x", b.Word(1), b.Word(0))
	}
	if got := b.String(); got != "128'h80000000000000000000000000000000" {
		t.Fatalf("String() = %q", got)
	}
}

func TestAsUint64(t *testing.T) {
	if v, ok := FromUint64(42, 16).AsUint64(); !ok || v != 42 {
		t.Fatalf("AsUint64 = %d,%v", v, ok)
	}
	if _, ok := Unknown(8).AsUint64(); ok {
		t.Fatal("Unknown(8).AsUint64 ok")
	}
	wide := FromWords([]uint64{1, 1}, 128)
	if _, ok := wide.AsUint64(); ok {
		t.Fatal("wide overflow AsUint64 ok")
	}
	narrowWide := FromWords([]uint64{7, 0}, 128)
	if v, ok := narrowWide.AsUint64(); !ok || v != 7 {
		t.Fatalf("narrow wide AsUint64 = %d,%v", v, ok)
	}
}

func TestTruth(t *testing.T) {
	if got := FromUint64(0, 8).Truth(); got != False {
		t.Fatalf("0 truth = %v", got)
	}
	if got := FromUint64(4, 8).Truth(); got != True {
		t.Fatalf("4 truth = %v", got)
	}
	if got := Unknown(8).Truth(); got != Undef {
		t.Fatalf("x truth = %v", got)
	}
	// Known-1 alongside x bits is still true.
	b, _ := ParseVCD("1x", 2)
	if got := b.Truth(); got != True {
		t.Fatalf("1x truth = %v", got)
	}
}

func TestEqRefined(t *testing.T) {
	x1, _ := ParseVCD("1x", 2)
	if got := x1.Eq(FromUint64(0, 2)); got != False {
		t.Fatalf("1x == 00: %v, want False (known bit differs)", got)
	}
	if got := x1.Eq(FromUint64(2, 2)); got != Undef {
		t.Fatalf("1x == 10: %v, want Undef", got)
	}
	if got := FromUint64(5, 8).Eq(FromUint64(5, 4)); got != True {
		t.Fatalf("5 == 5 across widths: %v", got)
	}
}

func TestCaseEq(t *testing.T) {
	a, _ := ParseVCD("1x0z", 4)
	b, _ := ParseVCD("1x0z", 4)
	c, _ := ParseVCD("1x0x", 4)
	if !a.CaseEq(b) {
		t.Fatal("1x0z === 1x0z false")
	}
	if a.CaseEq(c) {
		t.Fatal("1x0z === 1x0x true (z and x must differ)")
	}
}

func TestBitwiseXRules(t *testing.T) {
	zero := FromUint64(0, 1)
	one := FromUint64(1, 1)
	x := Unknown(1)
	// 0 & x = 0; 1 & x = x.
	if got := zero.And(x).Truth(); got != False {
		t.Fatalf("0&x = %v", got)
	}
	if got := one.And(x).Truth(); got != Undef {
		t.Fatalf("1&x = %v", got)
	}
	// 1 | x = 1; 0 | x = x.
	if got := one.Or(x).Truth(); got != True {
		t.Fatalf("1|x = %v", got)
	}
	if got := zero.Or(x).Truth(); got != Undef {
		t.Fatalf("0|x = %v", got)
	}
	// ^ and ~ propagate x.
	if got := one.Xor(x).Truth(); got != Undef {
		t.Fatalf("1^x = %v", got)
	}
	if got := x.Not().Truth(); got != Undef {
		t.Fatalf("~x = %v", got)
	}
	if got := one.Not().Truth(); got != False {
		t.Fatalf("~1 at width 1 = %v", got)
	}
}

func TestAddSubWide(t *testing.T) {
	a := FromWords([]uint64{^uint64(0), 0}, 128)
	b := FromUint64(1, 128)
	sum := a.Add(b)
	if sum.Word(0) != 0 || sum.Word(1) != 1 {
		t.Fatalf("carry: words %x,%x", sum.Word(1), sum.Word(0))
	}
	diff := sum.Sub(b)
	if diff.Word(0) != ^uint64(0) || diff.Word(1) != 0 {
		t.Fatalf("borrow: words %x,%x", diff.Word(1), diff.Word(0))
	}
	if !FromUint64(1, 8).Add(Unknown(8)).HasX() {
		t.Fatal("1 + x should be all-x")
	}
	// A signed receiver sign-extends: -1 + 1 and -1 - 1 at 9 bits.
	m1 := FromUint64(0xff, 8)
	m1.Signed = true
	if got := m1.Add(FromUint64(1, 8)); got.V0 != 0 || got.Width != 9 || !got.Signed {
		t.Fatalf("-1 + 1 = %s (width %d, signed %v)", got, got.Width, got.Signed)
	}
	if got := m1.Sub(FromUint64(1, 8)); got.V0 != 0x1fe || got.Width != 9 || !got.Signed {
		t.Fatalf("-1 - 1 = %s (width %d, signed %v)", got, got.Width, got.Signed)
	}
}

func TestCmpWide(t *testing.T) {
	a := FromWords([]uint64{0, 2}, 128)
	b := FromWords([]uint64{^uint64(0), 1}, 128)
	if c, ok := a.Cmp(b); !ok || c != 1 {
		t.Fatalf("cmp = %d,%v", c, ok)
	}
	if _, ok := a.Cmp(Unknown(128)); ok {
		t.Fatal("cmp vs x should be unknown")
	}
}

func TestShifts(t *testing.T) {
	b := FromUint64(1, 128)
	if got := b.Shl(100); got.Word(1) != 1<<36 || got.Word(0) != 0 {
		t.Fatalf("shl 100: %x,%x", got.Word(1), got.Word(0))
	}
	if got := b.Shl(100).Shr(100); got.Word(0) != 1 || got.Word(1) != 0 {
		t.Fatalf("shl/shr round trip: %x,%x", got.Word(1), got.Word(0))
	}
	// X bits shift with the value.
	x, _ := ParseVCD("x1", 2)
	s := x.Resize(4).Shl(1)
	if got := s.String(); got != "4'bx10" {
		// Resize zero-extends, so x1 -> 00x1 -> shl1 -> 0x10.
		if got != "4'b0x10" {
			t.Fatalf("x shift: %q", got)
		}
	}
}

func TestSar(t *testing.T) {
	for _, tc := range []struct {
		lit  string
		n    int
		want string
	}{
		{"1x00", 2, "111x"}, // a known 1 sign fills
		{"0x10", 1, "00x1"}, // a known 0 sign fills like Shr
		{"x100", 1, "xx10"}, // an x sign fills x
		{"1001", 9, "1111"}, // past the width: all sign
	} {
		b, err := ParseVCD(tc.lit, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ParseVCD(tc.want, 4)
		if got := b.Sar(tc.n); !got.CaseEq(want) || !got.Signed {
			t.Fatalf("%s >>> %d = %s (signed %v), want %s", tc.lit, tc.n, got, got.Signed, want)
		}
	}
}

func TestSlice(t *testing.T) {
	b, _ := ParseVCD("1x0z", 4)
	if got := b.Slice(2, 1).String(); got != "2'bx0" {
		t.Fatalf("slice [2:1] = %q", got)
	}
	// Slice above width zero-extends.
	if got := FromUint64(3, 2).Slice(7, 0); got.Width != 8 || got.V0 != 3 {
		t.Fatalf("forgiving slice = %v", got)
	}
}

func TestMux(t *testing.T) {
	a := FromUint64(0b1100, 4)
	b := FromUint64(0b1010, 4)
	m := Mux(a, b)
	if got := m.String(); got != "4'b1xx0" {
		t.Fatalf("mux = %q", got)
	}
}

func TestReductions(t *testing.T) {
	if got := FromUint64(0xFF, 8).RedAnd(); got != True {
		t.Fatalf("&8'hFF = %v", got)
	}
	if got := FromUint64(0xFE, 8).RedAnd(); got != False {
		t.Fatalf("&8'hFE = %v", got)
	}
	b, _ := ParseVCD("1111111x", 8)
	if got := b.RedAnd(); got != Undef {
		t.Fatalf("&8'b1111111x = %v", got)
	}
	c, _ := ParseVCD("0x", 2)
	if got := c.RedOr(); got != Undef {
		t.Fatalf("|2'b0x = %v", got)
	}
	if got := FromUint64(7, 8).RedXor(); got != True {
		t.Fatalf("^7 = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	if got := FromUint64(255, 8).String(); got != "255" {
		t.Fatalf("known narrow = %q", got)
	}
	wide := FromWords([]uint64{0xdead, 0xbeef}, 128)
	if got := wide.String(); got != "128'hbeef000000000000dead" {
		t.Fatalf("known wide = %q", got)
	}
	x, _ := ParseVCD("1x0z", 4)
	if got := x.String(); got != "4'b1x0z" {
		t.Fatalf("four-state = %q", got)
	}
}

func TestResizeMasks(t *testing.T) {
	b := Unknown(128)
	n := b.Resize(8)
	if n.Width != 8 || n.X0 != 0xFF || n.VH != nil {
		t.Fatalf("resize down: %+v", n)
	}
	w := FromUint64(^uint64(0), 64).Resize(128)
	if w.Word(0) != ^uint64(0) || w.Word(1) != 0 || w.HasX() {
		t.Fatalf("resize up: %+v", w)
	}
}
