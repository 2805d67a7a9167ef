package vcd

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// liveRun is the ground truth of a recorded simulation: what sim.Peek
// read for every signal at every clock edge (and once more after the
// last one), and the value changes the simulator reported.
type liveRun struct {
	end     uint64              // time after the last edge
	values  map[string][]uint64 // signal -> value at times 0..end
	changes map[string]int      // signal -> reported changes
	times   []uint64            // ascending times with a reported change
}

// at returns what the live simulator read for name at time t. Nothing
// changes after the last edge.
func (r *liveRun) at(name string, t uint64) uint64 {
	if t > r.end {
		t = r.end
	}
	return r.values[name][t]
}

// recordDesign simulates a two-level design (top counter plus two child
// accumulators) for n cycles and returns the VCD text together with
// the live run it must reproduce. Multiple scopes and widths exercise
// hierarchy reconstruction and vector changes.
func recordDesign(t testing.TB, n int) ([]byte, *liveRun) {
	t.Helper()
	nl := twoLevelNetlist(t)
	s := sim.New(nl)
	var buf bytes.Buffer
	rec := NewRecorder(s, &buf)
	live := &liveRun{values: map[string][]uint64{}, changes: map[string]int{}, times: []uint64{0}}
	peekAll := func(uint64) {
		for _, sig := range nl.Signals {
			v, err := s.Peek(sig.Name)
			if err != nil {
				t.Fatal(err)
			}
			live.values[sig.Name] = append(live.values[sig.Name], v.Bits)
		}
	}
	s.OnClockEdge(peekAll)
	// The Recorder took the initial-value report at time 0, one change
	// per signal; this hook sees every change after it.
	for _, sig := range nl.Signals {
		live.changes[sig.Name] = 1
	}
	s.OnChange(func(sig *rtl.Signal, _ eval.Value) {
		live.changes[sig.Name]++
		if tm := s.Time(); tm != live.times[len(live.times)-1] {
			live.times = append(live.times, tm)
		}
	})
	if err := s.Reset("Top.reset", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("Top.en", 1); err != nil {
		t.Fatal(err)
	}
	s.Run(n)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	live.end = s.Time()
	peekAll(live.end)
	return buf.Bytes(), live
}

// twoLevelNetlist elaborates recordDesign's design.
func twoLevelNetlist(t testing.TB) *rtl.Netlist {
	t.Helper()
	c := generator.NewCircuit("Top")
	leaf := c.NewModule("Leaf")
	d := leaf.Input("d", ir.UIntType(8))
	q := leaf.Output("q", ir.UIntType(8))
	acc := leaf.RegInit("acc", ir.UIntType(8), leaf.Lit(0, 8))
	leaf.When(d.Bit(0), func() {
		acc.Set(acc.AddMod(d))
	})
	q.Set(acc)
	top := c.NewModule("Top")
	en := top.Input("en", ir.UIntType(1))
	out := top.Output("out", ir.UIntType(16))
	count := top.RegInit("count", ir.UIntType(16), top.Lit(0, 16))
	top.When(en, func() {
		count.Set(count.AddMod(top.Lit(1, 16)))
	})
	u0 := top.Instance("u0", leaf)
	u1 := top.Instance("u1", leaf)
	u0.IO("d").Set(count.Bits(7, 0))
	u1.IO("d").Set(count.Bits(8, 1))
	out.Set(count.AddMod(count.AddMod(u0.IO("q").Cat(u1.IO("q")))))
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestStoreMatchesLiveSim pins the whole recording path against ground
// truth: every signal's value at every time must be what the live
// simulator read at that edge, queried lazily (block decode), again
// after partial and full materialization, and every signal's change
// count must be what its OnChange hook reported.
func TestStoreMatchesLiveSim(t *testing.T) {
	data, live := recordDesign(t, 300)
	// Block size 16 forces many blocks; 300 cycles crosses plenty of
	// boundaries.
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxTime != live.end {
		t.Fatalf("MaxTime: store %d, live run ended at %d", st.MaxTime, live.end)
	}
	names := st.SignalNames()
	if len(names) != len(live.values) {
		t.Fatalf("signal count: store %d, netlist %d", len(names), len(live.values))
	}
	check := func(phase string) {
		for _, name := range names {
			ss, _ := st.Signal(name)
			if _, ok := live.values[name]; !ok {
				t.Fatalf("%s: store signal %q not in the netlist", phase, name)
			}
			if got, want := ss.NumChanges(), live.changes[name]; got != want {
				t.Fatalf("%s: %s changes: store %d, OnChange %d", phase, name, got, want)
			}
			for tm := uint64(0); tm <= st.MaxTime; tm++ {
				if got, want := ss.ValueAt(tm), live.at(name, tm); got != want {
					t.Fatalf("%s: %s@%d = %d, live %d", phase, name, tm, got, want)
				}
			}
		}
	}
	check("lazy")
	// Materialize a subset, then everything; answers must not change.
	st.Materialize(names[0], names[len(names)/2])
	if s, _ := st.Signal(names[0]); !s.Materialized() {
		t.Fatal("signal not materialized")
	}
	check("partial")
	st.Materialize(names...)
	check("materialized")
}

// TestStoreApplyUpTo checks cursor-resumed state sweeps against the
// live run: replaying in arbitrary forward increments must land on the
// exact signal values at every stop.
func TestStoreApplyUpTo(t *testing.T) {
	data, live := recordDesign(t, 200)
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	state := st.NewState()
	var cur Cursor
	// Irregular hop sizes: within-block, block-exact, multi-block.
	var at uint64
	for _, hop := range []uint64{1, 2, 5, 8, 3, 16, 1, 40, 7, 64, 13} {
		at += hop
		if at > st.MaxTime {
			at = st.MaxTime
		}
		cur = st.ApplyUpTo(cur, at, state)
		for _, name := range st.SignalNames() {
			ss, _ := st.Signal(name)
			if got, want := st.StateBits(state, ss).V0, live.at(name, at); got != want {
				t.Fatalf("state[%s]@%d = %d, live %d", name, at, got, want)
			}
		}
	}
}

// TestStoreHierarchy checks the scope tree matches the elaborated
// netlist's, which is what the Recorder wrote.
func TestStoreHierarchy(t *testing.T) {
	data, _ := recordDesign(t, 10)
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := flattenHier(twoLevelNetlist(t).Hierarchy), flattenHier(st.Hierarchy)
	if len(a) != len(b) {
		t.Fatalf("hierarchy size: netlist %d, store %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hierarchy[%d]: netlist %q, store %q", i, a[i], b[i])
		}
	}
	if st.NumBlocks() == 0 || st.NumChanges() == 0 || st.IndexBytes() == 0 {
		t.Fatalf("store stats empty: blocks=%d changes=%d bytes=%d",
			st.NumBlocks(), st.NumChanges(), st.IndexBytes())
	}
}

// TestCursorWindowBoundaries pins the cursor conventions of the record
// walk (ApplyUpTo) at exact block-window edges — the times where an
// off-by-one between "partially covered" and "exhausted" block
// handling would corrupt resumed sweeps. For every boundary-adjacent
// time: resumed ApplyUpTo sweeps must match fresh ones and the live
// run, and NextChangeTime must report the first record past the cursor.
func TestCursorWindowBoundaries(t *testing.T) {
	data, live := recordDesign(t, 120)
	const bs = 16
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	// NextChangeTime's expected answers: the Recorder writes a change
	// record at exactly the times the simulator reported a change.
	names := st.SignalNames()
	firstAfter := func(tm uint64) (uint64, bool) {
		i := sort.Search(len(live.times), func(i int) bool { return live.times[i] > tm })
		if i == len(live.times) {
			return 0, false
		}
		return live.times[i], true
	}

	var times []uint64
	for win := uint64(0); win*bs <= st.MaxTime+bs; win++ {
		for _, tm := range []uint64{win * bs, win*bs + bs - 1} {
			times = append(times, tm)
			if tm > 0 {
				times = append(times, tm-1)
			}
		}
	}
	state := st.NewState()
	fresh := st.NewState()
	var cur Cursor
	var prev uint64
	for _, tm := range times {
		if tm < prev {
			continue
		}
		prev = tm
		// Resumed sweep vs fresh sweep vs the live run.
		cur = st.ApplyUpTo(cur, tm, state)
		fresh.Zero()
		freshCur := st.ApplyUpTo(Cursor{}, tm, fresh)
		for _, name := range names {
			ss, _ := st.Signal(name)
			want := live.at(name, tm)
			if st.StateBits(state, ss).V0 != want || st.StateBits(fresh, ss).V0 != want {
				t.Fatalf("sweep @%d %s: resumed %d, fresh %d, live %d",
					tm, name, st.StateBits(state, ss).V0, st.StateBits(fresh, ss).V0, want)
			}
		}
		if cur != freshCur {
			t.Fatalf("resumed cursor @%d = %+v, fresh %+v", tm, cur, freshCur)
		}
		// NextChangeTime from the advanced cursor: first change > tm.
		nt, ok := st.NextChangeTime(cur)
		wantNT, wantOK := firstAfter(tm)
		if ok != wantOK || (ok && nt != wantNT) {
			t.Fatalf("NextChangeTime after %d = %d,%v, want %d,%v", tm, nt, ok, wantNT, wantOK)
		}
	}
}

// TestZeroChangeSignal pins behavior for declared-but-never-changed
// signals: every query answers zero, sweeps leave their slot zero, and
// materialization marks them done with an empty timeline.
func TestZeroChangeSignal(t *testing.T) {
	src := `$scope module top $end
$var wire 8 ! quiet $end
$var wire 1 " clk $end
$upscope $end
$enddefinitions $end
#0
1"
#100
0"
`
	st, err := ParseStore(bytes.NewReader([]byte(src)), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := st.Signal("top.quiet")
	if !ok {
		t.Fatal("zero-change signal not declared")
	}
	if ts.NumChanges() != 0 {
		t.Fatalf("NumChanges = %d", ts.NumChanges())
	}
	for _, tm := range []uint64{0, 1, 50, 100} {
		if ts.ValueAt(tm) != 0 {
			t.Fatalf("ValueAt(%d) != 0", tm)
		}
	}
	state := st.NewState()
	st.ApplyUpTo(Cursor{}, st.MaxTime, state)
	if b := st.StateBits(state, ts); b.V0 != 0 || b.HasX() {
		t.Fatalf("sweep wrote %s into zero-change slot", b.String())
	}
	st.Materialize("top.quiet")
	if !ts.Materialized() {
		t.Fatal("zero-change signal not materialized")
	}
	if ts.ValueAt(50) != 0 {
		t.Fatal("materialized zero-change signal nonzero")
	}
}

// TestTimelineLRUBudget pins the materialized-timeline byte bound:
// when successive dependency unions push the resident set over the
// budget, the least recently advised timelines drop back to
// block-index form — and answers do not change.
func TestTimelineLRUBudget(t *testing.T) {
	data, live := recordDesign(t, 300)
	st, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	names := st.SignalNames()
	if len(names) < 4 {
		t.Fatalf("need >= 4 signals, have %d", len(names))
	}
	// Budget that fits roughly half the signals' timelines.
	total := 0
	for _, n := range names {
		ss, _ := st.Signal(n)
		total += 16 * ss.NumChanges()
	}
	st.setTimelineBudget(total / 2)

	half := len(names) / 2
	st.Materialize(names[:half]...)
	st.Materialize(names[half:]...)
	if got := st.TimelineBytes(); got > total/2 {
		t.Fatalf("TimelineBytes = %d, budget %d", got, total/2)
	}
	// The most recent union survives preferentially: at least one of the
	// second batch must be resident, and evicted signals still answer.
	resident := 0
	for _, n := range names[half:] {
		ss, _ := st.Signal(n)
		if ss.Materialized() {
			resident++
		}
	}
	if resident == 0 {
		t.Fatal("entire most-recent union evicted")
	}
	for _, n := range names {
		ss, _ := st.Signal(n)
		for tm := uint64(0); tm <= st.MaxTime; tm += 7 {
			if got, want := ss.ValueAt(tm), live.at(n, tm); got != want {
				t.Fatalf("post-eviction %s@%d = %d, live %d", n, tm, got, want)
			}
		}
	}
	// Re-advising an evicted union re-materializes it.
	st.setTimelineBudget(0)
	st.Materialize(names...)
	for _, n := range names {
		ss, _ := st.Signal(n)
		if !ss.Materialized() {
			t.Fatalf("%s not rematerialized under default budget", n)
		}
	}
}

// sparseTrace has huge record-free gaps: changes at 0, 70, 1e12 and
// 1e12+100.
const sparseTrace = `$scope module Top $end
$var wire 1 ! a $end
$var wire 8 " v $end
$upscope $end
$enddefinitions $end
#0
1!
b101 "
#70
0!
#1000000000000
1!
b11 "
#1000000000100
0!
`

// TestStoreSparseTimestamps pins the sparse-block property: real
// simulator dumps count timescale units, not cycles, so timestamps can
// be enormous (#1e12 for a 1 s run at 1 ps) with huge empty gaps.
// Block memory must scale with changes, not with MaxTime/blockSize,
// and queries inside and across the gaps must return the values the
// trace spells out.
func TestStoreSparseTimestamps(t *testing.T) {
	st, err := ParseStore(bytes.NewReader([]byte(sparseTrace)), StoreOptions{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Windows touched: 0, 1 (t=70), 15625000000 (t=1e12), and t=1e12+100
	// lands in the next window — 4 non-empty blocks, not ~1.5e10.
	if got := st.NumBlocks(); got != 4 {
		t.Fatalf("NumBlocks = %d, want 4 (sparse)", got)
	}
	if st.IndexBytes() > 1<<12 {
		t.Fatalf("IndexBytes = %d, want tiny for 6 changes", st.IndexBytes())
	}
	// Expected values per query time, straight from the trace text.
	times := []uint64{0, 1, 69, 70, 71, 1000, 999999999999, 1000000000000,
		1000000000050, 1000000000100, st.MaxTime}
	want := map[string][]uint64{
		"Top.a": {1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0},
		"Top.v": {5, 5, 5, 5, 5, 5, 5, 3, 3, 3, 3},
	}
	check := func(phase string) {
		for name, vals := range want {
			ss, _ := st.Signal(name)
			for i, tm := range times {
				if got := ss.ValueAt(tm); got != vals[i] {
					t.Fatalf("%s: %s@%d = %d, want %d", phase, name, tm, got, vals[i])
				}
			}
		}
	}
	check("lazy")
	// State sweeps must step across the gap without visiting it.
	state := st.NewState()
	var cur Cursor
	for i, tm := range times {
		cur = st.ApplyUpTo(cur, tm, state)
		for name, vals := range want {
			ss, _ := st.Signal(name)
			if got := st.StateBits(state, ss).V0; got != vals[i] {
				t.Fatalf("sweep: %s@%d = %d, want %d", name, tm, got, vals[i])
			}
		}
	}
	st.Materialize("Top.a", "Top.v")
	check("materialized")
}

// setTimelineBudget bounds the total bytes of resident materialized
// timelines (0 restores DefaultTimelineBudget), so tests can force
// eviction on small traces.
func (s *Store) setTimelineBudget(bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tlBudget = bytes
}
