package replay

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/vcd"
	"repro/internal/vpi"
)

// storeEngine parses the raw VCD into a block store and wraps it in a
// checkpointed engine with deliberately tiny blocks and intervals so
// short test traces still cross many boundaries.
func storeEngine(t testing.TB, data []byte, interval uint64) *Engine {
	t.Helper()
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(st, WithCheckpointInterval(interval))
}

// referenceStore parses the trace a second time and materializes every
// signal: its answers are binary searches over decoded timelines, with
// no state array and no checkpoints — the reference a checkpointed
// engine's restore-plus-sync path is checked against.
func referenceStore(t testing.TB, data []byte) *vcd.Store {
	t.Helper()
	st, err := vcd.ParseStore(bytes.NewReader(data), vcd.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Materialize(st.SignalNames()...)
	return st
}

// checkAgainst fails unless every signal of ref reads the same through
// eng at the engine's current time.
func checkAgainst(t *testing.T, eng *Engine, ref *vcd.Store, label string) {
	t.Helper()
	for _, name := range ref.SignalNames() {
		got, err := eng.GetBits(name)
		if err != nil {
			t.Fatal(err)
		}
		rs, _ := ref.Signal(name)
		if want := rs.BitsAt(eng.Time()); got.Width != want.Width || !got.CaseEq(want) {
			t.Fatalf("%s: %s@%d = %s, want %s", label, name, eng.Time(), got.String(), want.String())
		}
	}
}

// TestStoreEngineDifferential is the reverse-SetTime correctness
// contract: across random time jumps (forward and backward), the
// checkpointed store engine must return bit-identical values to a
// fully materialized reference store for every signal — with none,
// some, and all of the engine's signals materialized.
func TestStoreEngineDifferential(t *testing.T) {
	data := makeVCD(t)
	ref := referenceStore(t, data)
	eng := storeEngine(t, data, 3)
	names := ref.SignalNames()

	rng := rand.New(rand.NewSource(42))
	max := ref.MaxTime
	if max != eng.MaxTime() {
		t.Fatalf("MaxTime: engine %d, reference %d", eng.MaxTime(), max)
	}
	for jump := 0; jump < 200; jump++ {
		tm := uint64(rng.Int63n(int64(max + 1)))
		if err := eng.SetTime(tm); err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, eng, ref, fmt.Sprintf("jump %d", jump))
		switch jump {
		case 66:
			// Materialize part of the signal set mid-run; answers from
			// the lazy binary-search path must agree with state sync.
			eng.Prefetch(names[:len(names)/2])
		case 133:
			eng.Prefetch(names)
		}
	}
	if eng.Checkpoints() == 0 {
		t.Fatal("no checkpoints created across 200 random jumps")
	}
}

// diskStoreEngine round-trips the trace through the on-disk store
// format (IndexFile → OpenStoreFile) before wrapping it in a
// checkpointed engine, with a deliberately tiny block cache so LRU
// eviction churns during the test.
func diskStoreEngine(t testing.TB, data []byte, interval uint64) *Engine {
	t.Helper()
	dir := t.TempDir()
	vcdPath, storePath := filepath.Join(dir, "trace.vcd"), filepath.Join(dir, "trace.hgdbstore")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vcd.IndexFile(vcdPath, storePath, vcd.StoreOptions{BlockSize: 2}); err != nil {
		t.Fatal(err)
	}
	ds, err := vcd.OpenStoreFile(storePath, vcd.OpenOptions{BlockCacheBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return NewStore(ds, WithCheckpointInterval(interval))
}

// TestDiskStoreEngineDifferential runs the full replay contract over a
// disk-opened store: random forward/backward jumps, partial and full
// materialization, and checkpointed reverse seeks must all be
// bit-identical to a fully materialized in-memory reference store —
// proving the replay and checkpoint machinery runs unchanged over the
// on-disk format.
func TestDiskStoreEngineDifferential(t *testing.T) {
	data := makeVCD(t)
	ref := referenceStore(t, data)
	eng := diskStoreEngine(t, data, 3)
	names := ref.SignalNames()
	rng := rand.New(rand.NewSource(7))
	max := ref.MaxTime
	if max != eng.MaxTime() {
		t.Fatalf("MaxTime: disk store %d, reference %d", eng.MaxTime(), max)
	}
	for jump := 0; jump < 200; jump++ {
		tm := uint64(rng.Int63n(int64(max + 1)))
		if err := eng.SetTime(tm); err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, eng, ref, fmt.Sprintf("jump %d", jump))
		switch jump {
		case 66:
			eng.Prefetch(names[:len(names)/2])
		case 133:
			eng.Prefetch(names)
		}
	}
	if eng.Checkpoints() == 0 {
		t.Fatal("no checkpoints created across 200 random jumps")
	}
}

// TestStoreEngineStepsMatchLive runs the engine through a
// forward/backward step sequence and checks, at every point, the value
// the live simulator read at that edge and the time each edge callback
// was handed.
func TestStoreEngineStepsMatchLive(t *testing.T) {
	rec := recordLive(t, counterNetlist(t), countTen)
	eng := storeEngine(t, rec.vcd, 4)
	count := -1
	for i, name := range rec.names {
		if name == "Counter.count" {
			count = i
		}
	}
	if count < 0 {
		t.Fatal("Counter.count not in the netlist")
	}
	var times []uint64
	eng.OnClockEdge(func(tm uint64) { times = append(times, tm) })
	want := uint64(0)
	for _, fwd := range []bool{true, true, true, true, true, false, false, true, false, true} {
		if fwd {
			want++
			if !eng.StepForward() {
				t.Fatalf("StepForward refused at %d", want-1)
			}
		} else {
			want--
			if !eng.StepBackward() {
				t.Fatalf("StepBackward refused at %d", want+1)
			}
		}
		if got := times[len(times)-1]; got != want || eng.Time() != want {
			t.Fatalf("callback time %d, engine time %d, want %d", got, eng.Time(), want)
		}
		v, err := eng.GetValue("Counter.count")
		if err != nil {
			t.Fatal(err)
		}
		if live := rec.edges[want][count]; v.Bits != live {
			t.Fatalf("count@%d = %d, live %d", want, v.Bits, live)
		}
	}
	if len(times) != 10 {
		t.Fatalf("callbacks fired %d times, want 10", len(times))
	}
}

// TestStoreEngineBatchZeroAlloc pins the handle read's contract on the
// store backend: once the dependency union is prefetched
// (materialized), the per-cycle batched read allocates nothing.
func TestStoreEngineBatchZeroAlloc(t *testing.T) {
	eng := storeEngine(t, makeVCD(t), 4)
	paths := []string{"Counter.count", "Counter.out", "Counter.en"}
	eng.Prefetch(paths)
	hs := make([]vpi.Handle, len(paths))
	for i, p := range paths {
		h, _, err := eng.Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	dst := make([]uint64, len(paths))
	ok := make([]bool, len(paths))
	eng.SetTime(5)
	allocs := testing.AllocsPerRun(100, func() {
		eng.ReadValues(hs, dst, ok)
	})
	if allocs != 0 {
		t.Fatalf("ReadValues allocated %.1f per call, want 0", allocs)
	}
	for i, p := range paths {
		if !ok[i] {
			t.Fatalf("%s not read", p)
		}
		if want, _ := eng.GetValue(p); dst[i] != want.Bits {
			t.Fatalf("%s = %v by handle, %v by path", p, dst[i], want)
		}
	}
}

// TestStoreEngineInitialValues pins time-zero semantics: real
// simulator output dumps nonzero initial values at #0 ($dumpvars), and
// the store engine must return them — at first read, and again after
// seeking away and back. The repo's own Recorder happens to dump zeros
// at #0, which is why the random differential test alone cannot catch
// this.
func TestStoreEngineInitialValues(t *testing.T) {
	const trace = `$scope module Top $end
$var wire 1 ! rst $end
$var wire 8 " v $end
$upscope $end
$enddefinitions $end
#0
1!
b101 "
#2
0!
b110 "
#4
b111 "
`
	eng := storeEngine(t, []byte(trace), 2)
	// The trace's values at t = 0..4.
	want := map[string][]uint64{
		"Top.rst": {1, 1, 0, 0, 0},
		"Top.v":   {5, 5, 6, 6, 7},
	}
	check := func(when string) {
		for tm := uint64(0); tm <= 4; tm++ {
			eng.SetTime(tm)
			for name, vals := range want {
				got, err := eng.GetValue(name)
				if err != nil {
					t.Fatal(err)
				}
				if got.Bits != vals[tm] {
					t.Fatalf("%s: %s@%d = %d, want %d", when, name, tm, got.Bits, vals[tm])
				}
			}
		}
	}
	check("first pass")
	// Specifically: rst=1, v=5 at t=0 (the reported bug returned 0s).
	eng.SetTime(0)
	if v, _ := eng.GetValue("Top.rst"); v.Bits != 1 {
		t.Fatalf("rst@0 = %d, want 1", v.Bits)
	}
	if v, _ := eng.GetValue("Top.v"); v.Bits != 5 {
		t.Fatalf("v@0 = %d, want 5", v.Bits)
	}
	check("after seeks")
}

// TestStoreEngineSparseGapSync pins sync cost on sparse traces: real
// dumps count timescale units, so a small explicit checkpoint interval
// against a #1e9-long record-free gap must not loop (or snapshot) once
// per boundary. Sweep work is O(records + snapshots actually taken);
// this test hangs for ~a minute if a per-boundary regression returns.
func TestStoreEngineSparseGapSync(t *testing.T) {
	const trace = `$scope module Top $end
$var wire 1 ! a $end
$upscope $end
$enddefinitions $end
#0
1!
#1000000000
0!
`
	st, err := vcd.ParseStore(bytes.NewReader([]byte(trace)), vcd.StoreOptions{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewStore(st, WithCheckpointInterval(64))
	read := func(tm, want uint64) {
		if err := eng.SetTime(tm); err != nil {
			t.Fatal(err)
		}
		v, err := eng.GetValue("Top.a")
		if err != nil {
			t.Fatal(err)
		}
		if v.Bits != want {
			t.Fatalf("a@%d = %d, want %d", tm, v.Bits, want)
		}
	}
	read(eng.MaxTime(), 0)   // forward across the gap
	read(500000000, 1)       // backward into the gap
	read(eng.MaxTime()-1, 1) // forward again, just before the change
	read(0, 1)               // all the way back
	read(eng.MaxTime(), 0)   // and forward once more
	if n := eng.Checkpoints(); n > 4 {
		t.Fatalf("checkpoints = %d, want a handful (one per interval containing records, one per gap landing)", n)
	}
}

// TestStoreCheckpointOrderInvariant pins the restore lookup's sorted
// invariant: a partial sweep that consumes a record without crossing
// its checkpoint boundary, then a gap-jumping long sweep, then a
// rewind-and-resweep creates an earlier checkpoint AFTER later ones.
// cpTimes must stay sorted so a backward seek still binary-searches to
// the nearest checkpoint instead of silently replaying from t=0.
func TestStoreCheckpointOrderInvariant(t *testing.T) {
	const trace = `$scope module Top $end
$var wire 8 ! v $end
$upscope $end
$enddefinitions $end
#5
b1 !
#95
b10 !
#200
b11 !
`
	st, err := vcd.ParseStore(bytes.NewReader([]byte(trace)), vcd.StoreOptions{BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewStore(st, WithCheckpointInterval(10))
	// sync(7) consumes the t=5 record without snapshotting boundary 10;
	// sync(200) gap-jumps past 10 and snapshots 90/100/200; the rewind
	// and resweep to 25 finally creates checkpoint 10 — out of creation
	// order.
	for _, tm := range []uint64{7, 200, 3, 25} {
		e.sync(tm)
	}
	for i := 1; i < len(e.cpTimes); i++ {
		if e.cpTimes[i-1] >= e.cpTimes[i] {
			t.Fatalf("cpTimes not sorted: %v", e.cpTimes)
		}
	}
	// A backward seek to 60 must land on checkpoint 10, not reset to
	// time zero (which would silently degrade reverse seeks to O(t)).
	e.sync(200)
	e.restore(60)
	if e.stateTime != 10 {
		t.Fatalf("restore(60) landed at %d, want checkpoint 10 (cpTimes %v)", e.stateTime, e.cpTimes)
	}
	if got, _ := e.bits("Top.v", 60); got.V0 != 1 {
		t.Fatalf("v@60 = %d, want 1", got.V0)
	}
}

// TestStoreEngineConcurrentReads models the hgdb-replay deployment
// shape: the simulation goroutine sweeps replay state forward and
// backward while server connection goroutines issue raw get_value
// reads and a breakpoint arm materializes the dependency union
// mid-flight. Values must stay bit-identical to a fully materialized
// reference store throughout; run with -race to catch reader/sync
// races.
func TestStoreEngineConcurrentReads(t *testing.T) {
	data := makeVCD(t)
	e := storeEngine(t, data, 2)
	ref := referenceStore(t, data)
	names := ref.SignalNames()
	max := e.MaxTime()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tm := uint64((i*7 + g*3) % int(max+1))
				name := names[(i+g)%len(names)]
				got, err := e.bits(name, tm)
				if err != nil {
					t.Error(err)
					return
				}
				rs, _ := ref.Signal(name)
				if want := rs.ValueAt(tm); got.V0 != want {
					t.Errorf("%s@%d = %d, want %d", name, tm, got.V0, want)
					return
				}
				if i == 150 && g == 0 {
					e.Prefetch(names[:len(names)/2])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreEngineReverseUsesCheckpoints checks the mechanism (not just
// the answers): after a forward sweep, a backward seek restores from a
// snapshot rather than replaying from zero — observable as checkpoint
// population plus correct unmaterialized reads straight after the
// restore.
func TestStoreEngineReverseUsesCheckpoints(t *testing.T) {
	data := makeVCD(t)
	eng := storeEngine(t, data, 2)
	// Forward sweep with an unmaterialized read each cycle populates
	// every boundary snapshot.
	for eng.StepForward() {
		if _, err := eng.GetValue("Counter.count"); err != nil {
			t.Fatal(err)
		}
	}
	want := int(eng.MaxTime() / 2)
	if got := eng.Checkpoints(); got != want {
		t.Fatalf("checkpoints after full sweep = %d, want %d", got, want)
	}
	ref, _ := referenceStore(t, data).Signal("Counter.count")
	for tm := int64(eng.MaxTime()); tm >= 0; tm-- {
		eng.SetTime(uint64(tm))
		got, err := eng.GetValue("Counter.count")
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.ValueAt(uint64(tm)); got.Bits != want {
			t.Fatalf("reverse read@%d = %d, want %d", tm, got.Bits, want)
		}
	}
}

// gappedVCD writes a random trace over signals of several widths, one
// of them carrying x/z bits: records at times 0..79, none in 80..499,
// then records again at 500..579.
func gappedVCD(rng *rand.Rand) []byte {
	widths := []int{1, 8, 16, 33, 72, 4}
	var b bytes.Buffer
	b.WriteString("$scope module Top $end\n")
	for i, w := range widths {
		fmt.Fprintf(&b, "$var wire %d %c s%d $end\n", w, '!'+i, i)
	}
	b.WriteString("$upscope $end\n$enddefinitions $end\n")
	digits := "01xz"
	emit := func(tm int, all bool) {
		fmt.Fprintf(&b, "#%d\n", tm)
		for i, w := range widths {
			if !all && rng.Intn(3) != 0 {
				continue
			}
			known := i != len(widths)-1 || rng.Intn(2) == 0
			var v []byte
			for k := 0; k < w; k++ {
				if known {
					v = append(v, digits[rng.Intn(2)])
				} else {
					v = append(v, digits[rng.Intn(4)])
				}
			}
			if w == 1 {
				fmt.Fprintf(&b, "%s%c\n", v, '!'+i)
			} else {
				fmt.Fprintf(&b, "b%s %c\n", v, '!'+i)
			}
		}
	}
	for tm := 0; tm < 80; tm++ {
		emit(tm, tm == 0)
	}
	for tm := 500; tm < 580; tm++ {
		emit(tm, false)
	}
	return b.Bytes()
}

// TestStoreEngineSeekDifferential is the seek contract after a warm
// sweep: random forward and backward seeks, seeks that land exactly on
// a checkpoint and seeks into the record-free gap read every signal
// bit-identically to a fully materialized reference store. A forward
// seek over swept time starts from the latest checkpoint at or before
// its target instead of replaying every record in between.
func TestStoreEngineSeekDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := gappedVCD(rng)
	ref := referenceStore(t, data)
	eng := storeEngine(t, data, 8)
	names := ref.SignalNames()
	// Warm: one sweep with a full-state read at every cycle takes every
	// checkpoint.
	for tm := uint64(0); tm <= eng.MaxTime(); tm++ {
		eng.SetTime(tm)
		if _, err := eng.GetBits(names[0]); err != nil {
			t.Fatal(err)
		}
	}
	cps := append([]uint64(nil), eng.cpTimes...)
	if len(cps) < 10 {
		t.Fatalf("warm sweep took %d checkpoints", len(cps))
	}
	// A forward seek from time 0 restores the latest checkpoint at or
	// before its target.
	target := eng.MaxTime() - 3
	latest := cps[sort.Search(len(cps), func(i int) bool { return cps[i] > target })-1]
	eng.sync(0)
	eng.restore(target)
	if eng.stateTime != latest {
		t.Fatalf("forward restore toward %d landed at %d, want checkpoint %d (checkpoints %v)", target, eng.stateTime, latest, cps)
	}

	var seeks []uint64
	for i := 0; i < 200; i++ {
		seeks = append(seeks, uint64(rng.Int63n(int64(eng.MaxTime()+1))))
	}
	seeks = append(seeks, cps...)
	seeks = append(seeks, 80, 81, 250, 498, 499, 500)
	rng.Shuffle(len(seeks), func(i, j int) { seeks[i], seeks[j] = seeks[j], seeks[i] })
	for i, tm := range seeks {
		if err := eng.SetTime(tm); err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, eng, ref, fmt.Sprintf("seek %d to %d", i, tm))
	}
}
