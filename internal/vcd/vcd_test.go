package vcd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/val"
)

func buildAndSim(t *testing.T) *sim.Simulator {
	t.Helper()
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
	})
	out.Set(count)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(nl)
}

func recordTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	s := buildAndSim(t)
	var buf bytes.Buffer
	rec := NewRecorder(s, &buf)
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(10)
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return &buf
}

func TestRecorderHeader(t *testing.T) {
	buf := recordTrace(t)
	text := buf.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module Counter $end",
		"$enddefinitions $end",
		"$var wire 8 ",
		"$var wire 1 ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in VCD:\n%s", want, text[:400])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	buf := recordTrace(t)
	st, err := ParseStore(buf, StoreOptions{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ts, ok := st.Signal("Counter.count")
	if !ok {
		t.Fatalf("count not in trace; have %v", st.SignalNames())
	}
	if ts.Width != 8 {
		t.Fatalf("count width = %d", ts.Width)
	}
	// After 1 reset cycle + enable, count at time 1+k is k (commits at
	// end of each enabled cycle).
	if got := ts.ValueAt(st.MaxTime); got == 0 {
		t.Fatalf("final count = %d, want nonzero", got)
	}
	// Monotone counting: value at t+1 >= value at t for our run.
	var prev uint64
	for tm := uint64(0); tm <= st.MaxTime; tm++ {
		v := ts.ValueAt(tm)
		if v < prev {
			t.Fatalf("count decreased: %d -> %d at t=%d", prev, v, tm)
		}
		prev = v
	}
	if st.Hierarchy == nil || st.Hierarchy.Name != "Counter" {
		t.Fatalf("hierarchy = %+v", st.Hierarchy)
	}
}

func TestValueAtBeforeFirstChange(t *testing.T) {
	src := `$scope module top $end
$var wire 4 ! x $end
$var wire 4 " idle $end
$upscope $end
$enddefinitions $end
#5
b11 !
#10
b111 !
`
	// Block size 4 puts the two changes in different blocks.
	st, err := ParseStore(strings.NewReader(src), StoreOptions{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if idle, _ := st.Signal("top.idle"); idle.ValueAt(100) != 0 {
		t.Fatal("empty timeline not zero")
	}
	ts, _ := st.Signal("top.x")
	cases := []struct{ t, want uint64 }{{0, 0}, {4, 0}, {5, 3}, {9, 3}, {10, 7}, {100, 7}}
	for _, phase := range []string{"lazy", "materialized"} {
		for _, c := range cases {
			if got := ts.ValueAt(c.t); got != c.want {
				t.Errorf("%s: ValueAt(%d) = %d, want %d", phase, c.t, got, c.want)
			}
		}
		st.Materialize("top.x")
	}
	if ts.NumChanges() != 2 {
		t.Fatalf("NumChanges = %d", ts.NumChanges())
	}
}

// xzTrace is a 4-bit signal that starts with x and z bits, then turns
// fully known.
const xzTrace = `$scope module top $end
$var wire 4 ! sig $end
$upscope $end
$enddefinitions $end
#0
bx0z1 !
#1
b1010 !
`

func TestParseHandlesXZStates(t *testing.T) {
	st, err := ParseStore(strings.NewReader(xzTrace), StoreOptions{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ts, _ := st.Signal("top.sig")
	// Full four-state round trip: x and z survive the parse verbatim.
	if got := ts.BitsAt(0).String(); got != "4'bx0z1" {
		t.Fatalf("four-state value at 0 = %s, want 4'bx0z1", got)
	}
	if !ts.BitsAt(0).HasX() {
		t.Fatal("x/z bits lost")
	}
	if ts.ValueAt(1) != 0b1010 {
		t.Fatalf("value at 1 = %b", ts.ValueAt(1))
	}
	if b := ts.BitsAt(1); b.HasX() {
		t.Fatalf("known value at 1 reports unknown bits: %s", b.String())
	}
	if st.Stats.XZChanges != 1 {
		t.Fatalf("Stats.XZChanges = %d, want 1", st.Stats.XZChanges)
	}
}

func TestParseScalarChanges(t *testing.T) {
	src := `$scope module top $end
$var wire 1 ! clk $end
$upscope $end
$enddefinitions $end
#0
0!
#1
1!
#2
0!
`
	st, err := ParseStore(strings.NewReader(src), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := st.Signal("top.clk")
	if ts.ValueAt(0) != 0 || ts.ValueAt(1) != 1 || ts.ValueAt(2) != 0 {
		t.Fatal("scalar timeline wrong")
	}
	if st.MaxTime != 2 {
		t.Fatalf("MaxTime = %d", st.MaxTime)
	}
}

// TestParseErrors feeds malformed VCD text to both text parsers:
// ParseStore and the streaming IndexFile. Each must return an error,
// never a panic; declared widths past maxSignalWidth, which would size
// a change's value planes or write a store OpenStore refuses, must be
// rejected at the declaring line.
func TestParseErrors(t *testing.T) {
	wideVar := func(width uint64) string {
		return fmt.Sprintf("$scope module t $end\n$var wire %d ! w $end\n$upscope $end\n"+
			"$enddefinitions $end\n#0\n1!\n", width)
	}
	bad := []struct {
		src  string
		line int // the error must name this line
	}{
		{"$scope module\n", 1},          // malformed scope
		{"$var wire x ! sig $end\n", 1}, // bad width
		{"$enddefinitions $end\n#zz\n", 2},
		{"$scope module t $end\n$var wire 1 ! s $end\n$enddefinitions $end\n#0\nbxy !\n", 5},
		{wideVar(1 << 62), 2},
		{wideVar(maxSignalWidth + 1), 2},
	}
	dir := t.TempDir()
	for i, c := range bad {
		vcdPath := filepath.Join(dir, fmt.Sprintf("bad%d.vcd", i))
		if err := os.WriteFile(vcdPath, []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		storePath := filepath.Join(dir, fmt.Sprintf("bad%d.hgdbstore", i))
		for name, parse := range map[string]func() error{
			"ParseStore": func() error { _, err := ParseStore(strings.NewReader(c.src), StoreOptions{}); return err },
			"IndexFile":  func() error { _, err := IndexFile(vcdPath, storePath, StoreOptions{}); return err },
		} {
			err := parse()
			if err == nil {
				t.Errorf("%s accepted malformed VCD %q", name, c.src)
				continue
			}
			if want := fmt.Sprintf("line %d:", c.line); !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error for %q not positioned at %s: %v", name, c.src, want, err)
			}
		}
		if _, err := os.Stat(storePath); !os.IsNotExist(err) {
			t.Errorf("IndexFile left a store behind for %q", c.src)
		}
	}
}

// TestTimeRegressionRejected pins the scanVCD timestamp contract: a
// regressed #time marker must fail the parse with a positioned error,
// not flow into the ingest where the time-delta encoding would
// underflow and silently corrupt the block record stream.
func TestTimeRegressionRejected(t *testing.T) {
	src := `$scope module top $end
$var wire 1 ! clk $end
$upscope $end
$enddefinitions $end
#0
1!
#5
0!
#3
1!
`
	_, err := ParseStore(strings.NewReader(src), StoreOptions{BlockSize: 4})
	if err == nil {
		t.Fatal("ParseStore accepted a regressed timestamp")
	}
	// The error must point at the offending line (line 9: "#3").
	if !strings.Contains(err.Error(), "line 9") || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("unpositioned regression error: %v", err)
	}
	// Equal timestamps are legal (repeated #t markers appear in real
	// dumps) and must still parse.
	ok := strings.Replace(src, "#3", "#5", 1)
	if _, err := ParseStore(strings.NewReader(ok), StoreOptions{BlockSize: 4}); err != nil {
		t.Fatalf("repeated timestamp rejected: %v", err)
	}
}

// wideTrace is a 100-bit bus whose first change sets 36 high bits
// above a known low word, followed by a narrow change.
var (
	wideHigh  = strings.Repeat("1", 36)
	wideLow   = "1010" + strings.Repeat("0", 56) + "1101"
	wideTrace = `$scope module top $end
$var wire 100 ! bus $end
$var wire 1 " clk $end
$upscope $end
$enddefinitions $end
#0
b` + wideHigh + wideLow + ` !
0"
#1
b101 !
`
)

// TestWideVectorFullWidth pins the four-state wide-bus semantics: a
// vector change wider than 64 bits is stored at full width (no masking)
// and reads back bit-exact through BitsAt, while the two-state ValueAt
// view still exposes its low 64 bits.
func TestWideVectorFullWidth(t *testing.T) {
	want, err := strconv.ParseUint(wideLow, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	wantBits, err := val.ParseVCD(wideHigh+wideLow, 100)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ParseStore(strings.NewReader(wideTrace), StoreOptions{})
	if err != nil {
		t.Fatalf("wide vector aborted store parse: %v", err)
	}
	ss, _ := st.Signal("top.bus")
	if got := ss.ValueAt(0); got != want {
		t.Fatalf("store wide vector low bits = %#x, want %#x", got, want)
	}
	if got := ss.BitsAt(0); !got.CaseEq(wantBits) {
		t.Fatalf("store wide vector = %s, want %s", got.String(), wantBits.String())
	}
	if got := ss.ValueAt(1); got != 0b101 {
		t.Fatalf("narrow follow-up = %#x", got)
	}
	if st.Stats.XZChanges != 0 || st.Stats.MaxWidth != 100 {
		t.Fatalf("store Stats = %+v, want XZChanges 0, MaxWidth 100", st.Stats)
	}
	// And through the disk round trip, both lazily and materialized.
	disk := writeOpen(t, st, OpenOptions{})
	ds, _ := disk.Signal("top.bus")
	if got := ds.BitsAt(0); !got.CaseEq(wantBits) {
		t.Fatalf("disk wide vector = %s, want %s", got.String(), wantBits.String())
	}
	disk.Materialize("top.bus")
	if got := ds.BitsAt(0); !got.CaseEq(wantBits) {
		t.Fatalf("materialized disk wide vector = %s, want %s", got.String(), wantBits.String())
	}
}

// TestVeryLongLines pins the scanner buffer fix: a single change line
// for a megabit bus blows bufio.Scanner's default 64 KiB token cap and
// used to kill the whole trace.
func TestVeryLongLines(t *testing.T) {
	const wideBits = maxSignalWidth // one 1 Mib vector change = a ~1 MiB line
	var sb strings.Builder
	sb.WriteString("$scope module top $end\n")
	fmt.Fprintf(&sb, "$var wire %d ! bus $end\n", wideBits)
	sb.WriteString("$upscope $end\n$enddefinitions $end\n#0\nb")
	sb.WriteString(strings.Repeat("0", wideBits-64))
	sb.WriteString("1" + strings.Repeat("0", 62) + "1")
	sb.WriteString(" !\n#1\nb11 !\n")
	st, err := ParseStore(strings.NewReader(sb.String()), StoreOptions{})
	if err != nil {
		t.Fatalf("long line killed parse: %v", err)
	}
	ts, _ := st.Signal("top.bus")
	if got := ts.ValueAt(0); got != 1<<63|1 {
		t.Fatalf("long-line value = %#x", got)
	}
	// The value keeps its full declared width, with the bits above the
	// low word known zero.
	if b := ts.BitsAt(0); b.Width != wideBits || b.HasX() {
		t.Fatalf("wide value lost width: %d bits, hasX=%v", b.Width, b.HasX())
	}
	if got := ts.ValueAt(1); got != 0b11 {
		t.Fatalf("follow-up value = %#x", got)
	}
	if st.Stats.MaxWidth != wideBits {
		t.Fatalf("Stats.MaxWidth = %d, want %d", st.Stats.MaxWidth, wideBits)
	}
}

// FuzzParseStore throws hostile text at the VCD parser. Any input may
// be rejected, but none may panic; an accepted trace must survive the
// disk round trip: WriteStore → OpenStore opens it, and every signal
// answers BitsAt identically at 0, MaxTime/2 and MaxTime.
func FuzzParseStore(f *testing.F) {
	data, _ := recordDesign(f, 40)
	f.Add(data)
	f.Add([]byte(xzTrace))
	f.Add([]byte(wideTrace))
	f.Add([]byte(sparseTrace))
	f.Fuzz(func(t *testing.T, b []byte) {
		mem, err := ParseStore(bytes.NewReader(b), StoreOptions{BlockSize: 8})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStore(&buf, mem); err != nil {
			t.Fatalf("WriteStore: %v", err)
		}
		disk, err := OpenStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()), OpenOptions{})
		if err != nil {
			t.Fatalf("OpenStore refused a parsed trace: %v", err)
		}
		for _, name := range mem.SignalNames() {
			ms, _ := mem.Signal(name)
			ds, ok := disk.Signal(name)
			if !ok {
				t.Fatalf("opened store lost %q", name)
			}
			for _, tm := range []uint64{0, mem.MaxTime / 2, mem.MaxTime} {
				if got, want := ds.BitsAt(tm), ms.BitsAt(tm); got.Width != want.Width || !got.CaseEq(want) {
					t.Fatalf("%s@%d: disk %s, parsed %s", name, tm, got.String(), want.String())
				}
			}
		}
		if err := disk.Err(); err != nil {
			t.Fatalf("opened store poisoned: %v", err)
		}
	})
}

func TestIDCode(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := idCode(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
		for _, ch := range id {
			if ch < '!' || ch > '~' {
				t.Fatalf("non-printable id char %q", id)
			}
		}
	}
}
