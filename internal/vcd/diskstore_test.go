package vcd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/rtl"
	"repro/internal/val"
)

// memFile is an in-memory io.WriterAt, so tests write store images
// through the same writer IndexFile uses.
type memFile struct{ b []byte }

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(m.b) {
		m.b = append(m.b, make([]byte, end-len(m.b))...)
	}
	return copy(m.b[off:], p), nil
}

// indexBytes writes the store of VCD text data with block size bs (0 =
// default) and returns the file image.
func indexBytes(t testing.TB, data []byte, bs uint64) []byte {
	t.Helper()
	var m memFile
	if _, err := indexStream(bytes.NewReader(data), &m, StoreOptions{BlockSize: bs}); err != nil {
		t.Fatalf("indexStream: %v", err)
	}
	return m.b
}

// writeOpen indexes VCD text data and opens the resulting store image.
func writeOpen(t testing.TB, data []byte, bs uint64, opts OpenOptions) *Store {
	t.Helper()
	raw := indexBytes(t, data, bs)
	ds, err := OpenStore(bytes.NewReader(raw), int64(len(raw)), opts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return ds
}

func flattenHier(n *rtl.InstanceNode) []string {
	if n == nil {
		return nil
	}
	out := []string{n.Path}
	out = append(out, n.Signals...)
	for _, c := range n.Children {
		out = append(out, flattenHier(c)...)
	}
	return out
}

// diffStores asserts two stores answer bit-identically: metadata,
// hierarchy, lazy point queries, materialized queries, and state
// sweeps.
func diffStores(t *testing.T, mem, disk *Store, label string) {
	t.Helper()
	if disk.MaxTime != mem.MaxTime {
		t.Fatalf("%s: MaxTime disk %d, mem %d", label, disk.MaxTime, mem.MaxTime)
	}
	if disk.NumSignals() != mem.NumSignals() || disk.NumBlocks() != mem.NumBlocks() ||
		disk.NumChanges() != mem.NumChanges() {
		t.Fatalf("%s: shape disk %d/%d/%d, mem %d/%d/%d", label,
			disk.NumSignals(), disk.NumBlocks(), disk.NumChanges(),
			mem.NumSignals(), mem.NumBlocks(), mem.NumChanges())
	}
	if disk.Stats != mem.Stats {
		t.Fatalf("%s: stats disk %+v, mem %+v", label, disk.Stats, mem.Stats)
	}
	a, b := flattenHier(mem.Hierarchy), flattenHier(disk.Hierarchy)
	if len(a) != len(b) {
		t.Fatalf("%s: hierarchy size disk %d, mem %d", label, len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: hierarchy[%d] disk %q, mem %q", label, i, b[i], a[i])
		}
	}
	names := mem.SignalNames()
	// Sample times around every occupied block window (timestamps are
	// sparse — 1e9-scale gaps are normal, so never stride over MaxTime)
	// plus an even spread across the whole range.
	bs := mem.BlockSize()
	timeSet := map[uint64]bool{0: true, mem.MaxTime: true}
	for i := range mem.blocks {
		start := mem.blocks[i].win * bs
		for _, tm := range []uint64{start, start + 1, start + bs/2, start + bs - 1, start + bs} {
			if tm <= mem.MaxTime {
				timeSet[tm] = true
			}
		}
		if start > 0 {
			timeSet[start-1] = true
		}
	}
	for i := uint64(0); i < 64; i++ {
		timeSet[mem.MaxTime/64*i] = true
	}
	times := make([]uint64, 0, len(timeSet))
	for tm := range timeSet {
		times = append(times, tm)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, name := range names {
		ms, _ := mem.Signal(name)
		ds, ok := disk.Signal(name)
		if !ok {
			t.Fatalf("%s: disk missing %q", label, name)
		}
		if ds.Width != ms.Width || ds.Index() != ms.Index() || ds.NumChanges() != ms.NumChanges() {
			t.Fatalf("%s: %s meta disk %d/%d/%d, mem %d/%d/%d", label, name,
				ds.Width, ds.Index(), ds.NumChanges(), ms.Width, ms.Index(), ms.NumChanges())
		}
		for _, tm := range times {
			if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
				t.Fatalf("%s: %s@%d disk %d, mem %d", label, name, tm, got, want)
			}
		}
	}
	// State sweeps share cursors across the two stores.
	memState := mem.NewState()
	diskState := disk.NewState()
	var mc, dc Cursor
	for _, tm := range times {
		if tm < mc.Time {
			continue
		}
		mc = mem.ApplyUpTo(mc, tm, memState)
		dc = disk.ApplyUpTo(dc, tm, diskState)
		if mc != dc {
			t.Fatalf("%s: cursor @%d disk %+v, mem %+v", label, tm, dc, mc)
		}
		for i := range memState.V {
			if memState.V[i] != diskState.V[i] || memState.X[i] != diskState.X[i] {
				t.Fatalf("%s: state word %d @%d disk %d/%d, mem %d/%d", label, i, tm,
					diskState.V[i], diskState.X[i], memState.V[i], memState.X[i])
			}
		}
	}
	// Materialized answers must also match.
	disk.Materialize(names...)
	for _, name := range names {
		ms, _ := mem.Signal(name)
		ds, _ := disk.Signal(name)
		for _, tm := range times {
			if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
				t.Fatalf("%s: materialized %s@%d disk %d, mem %d", label, name, tm, got, want)
			}
		}
	}
	if err := disk.Err(); err != nil {
		t.Fatalf("%s: store poisoned: %v", label, err)
	}
}

// TestStoreRoundTrip is the primary disk-vs-memory differential on a
// real recorded design: the store indexed from a trace must open
// bit-identical to the store ParseStore builds from the same text.
func TestStoreRoundTrip(t *testing.T) {
	data, _ := recordDesign(t, 300)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk := writeOpen(t, data, 16, OpenOptions{})
	diffStores(t, mem, disk, "roundtrip")
}

// xorshift is the deterministic PRNG used for random-trace generation.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// randomVCD generates a syntactically valid trace with random signal
// widths, sparse timestamps, and wide/x-state vectors.
func randomVCD(rng *xorshift) []byte {
	var sb strings.Builder
	nsig := int(rng.next()%12) + 1
	sb.WriteString("$scope module top $end\n")
	widths := make([]int, nsig)
	for i := 0; i < nsig; i++ {
		widths[i] = int(rng.next()%80) + 1 // some wider than 64
		fmt.Fprintf(&sb, "$var wire %d %s s%d $end\n", widths[i], idCode(i), i)
	}
	sb.WriteString("$upscope $end\n$enddefinitions $end\n")
	tm := uint64(0)
	steps := int(rng.next() % 200)
	for s := 0; s < steps; s++ {
		fmt.Fprintf(&sb, "#%d\n", tm)
		nch := int(rng.next()%uint64(nsig)) + 1
		for c := 0; c < nch; c++ {
			i := int(rng.next() % uint64(nsig))
			if widths[i] == 1 {
				fmt.Fprintf(&sb, "%d%s\n", rng.next()&1, idCode(i))
				continue
			}
			var bits strings.Builder
			for b := 0; b < widths[i]; b++ {
				switch rng.next() % 6 {
				case 0:
					bits.WriteByte('x')
				case 1:
					bits.WriteByte('z')
				default:
					bits.WriteByte(byte('0' + rng.next()&1))
				}
			}
			fmt.Fprintf(&sb, "b%s %s\n", bits.String(), idCode(i))
		}
		// Mostly small hops, occasionally a huge sparse gap.
		if rng.next()%20 == 0 {
			tm += rng.next() % 1e9
		} else {
			tm += rng.next()%5 + 1
		}
	}
	return []byte(sb.String())
}

// TestDiskMemoryDifferentialRandom fuzzes the round trip with random
// traces: whatever ParseStore builds, the store indexed from the same
// text must reproduce bit-identically once opened.
func TestDiskMemoryDifferentialRandom(t *testing.T) {
	rng := xorshift(0x9E3779B97F4A7C15)
	for i := 0; i < 25; i++ {
		data := randomVCD(&rng)
		bs := uint64(1) << (rng.next()%8 + 1) // 2..256
		mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: bs})
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		disk := writeOpen(t, data, bs, OpenOptions{})
		diffStores(t, mem, disk, fmt.Sprintf("random-%d(bs=%d)", i, bs))
	}
}

// TestIndexFile checks the streaming ingest path: indexing a VCD file
// must produce a store identical to ParseStore over the same text, and
// report honest stats.
func TestIndexFile(t *testing.T) {
	data, _ := recordDesign(t, 250)
	dir := t.TempDir()
	vcdPath := filepath.Join(dir, "trace.vcd")
	storePath := filepath.Join(dir, "trace.hgdbstore")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := IndexFile(vcdPath, storePath, StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatalf("IndexFile: %v", err)
	}
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Signals != mem.NumSignals() || stats.Blocks != mem.NumBlocks() ||
		stats.Changes != mem.NumChanges() || stats.MaxTime != mem.MaxTime {
		t.Fatalf("IndexStats %+v vs store %d/%d/%d/%d", stats,
			mem.NumSignals(), mem.NumBlocks(), mem.NumChanges(), mem.MaxTime)
	}
	fi, err := os.Stat(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != stats.Bytes {
		t.Fatalf("stats.Bytes = %d, file is %d", stats.Bytes, fi.Size())
	}
	disk, err := OpenStoreFile(storePath, OpenOptions{})
	if err != nil {
		t.Fatalf("OpenStoreFile: %v", err)
	}
	defer disk.Close()
	diffStores(t, mem, disk, "indexfile")

	// A malformed VCD must not leave a partial store file behind.
	badVCD := filepath.Join(dir, "bad.vcd")
	badStore := filepath.Join(dir, "bad.hgdbstore")
	if err := os.WriteFile(badVCD, []byte("$enddefinitions $end\n#5\n#3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := IndexFile(badVCD, badStore, StoreOptions{}); err == nil {
		t.Fatal("IndexFile accepted a regressed-timestamp trace")
	}
	if _, err := os.Stat(badStore); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial store file left behind: %v", err)
	}

	// Opening raw VCD text as a store must report ErrNotStore (the
	// hgdb-replay sniff-and-fallback contract).
	if _, err := OpenStoreFile(vcdPath, OpenOptions{}); !errors.Is(err, ErrNotStore) {
		t.Fatalf("raw VCD open error = %v, want ErrNotStore", err)
	}
}

// TestIndexFileDeterministic: indexing one trace twice writes the same
// bytes, so a store can be compared, cached and shared by content.
func TestIndexFileDeterministic(t *testing.T) {
	data, _ := recordDesign(t, 200)
	dir := t.TempDir()
	vcdPath := filepath.Join(dir, "trace.vcd")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stores [2][]byte
	for i := range stores {
		storePath := filepath.Join(dir, fmt.Sprintf("trace%d.hgdbstore", i))
		if _, err := IndexFile(vcdPath, storePath, StoreOptions{BlockSize: 8}); err != nil {
			t.Fatalf("IndexFile %d: %v", i, err)
		}
		raw, err := os.ReadFile(storePath)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = raw
	}
	if !bytes.Equal(stores[0], stores[1]) {
		t.Fatalf("two indexes of one trace differ (%d and %d bytes)", len(stores[0]), len(stores[1]))
	}
	if !bytes.Equal(stores[0], indexBytes(t, data, 8)) {
		t.Fatal("IndexFile and indexStream wrote different bytes for one trace")
	}
}

// TestIndexFileRefusesItsInput: a store path that names the input trace
// (directly or through a link) is refused before anything is written,
// and the trace survives unchanged.
func TestIndexFileRefusesItsInput(t *testing.T) {
	data, _ := recordDesign(t, 20)
	dir := t.TempDir()
	vcdPath := filepath.Join(dir, "trace.vcd")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link.vcd")
	if err := os.Symlink(vcdPath, link); err != nil {
		t.Fatal(err)
	}
	for _, storePath := range []string{vcdPath, link} {
		if _, err := IndexFile(vcdPath, storePath, StoreOptions{}); err == nil {
			t.Fatalf("IndexFile wrote its store over its input %s", storePath)
		}
		got, err := os.ReadFile(vcdPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("indexing into %s changed the trace (%d bytes, was %d)", storePath, len(got), len(data))
		}
	}
	assertOnlyFiles(t, dir, "link.vcd", "trace.vcd")
}

// TestIndexFileKeepsStoreOnFailure: a failed re-index leaves the store
// already at the path byte for byte, and no temporary file behind.
func TestIndexFileKeepsStoreOnFailure(t *testing.T) {
	data, _ := recordDesign(t, 40)
	dir := t.TempDir()
	vcdPath := filepath.Join(dir, "trace.vcd")
	badPath := filepath.Join(dir, "bad.vcd")
	storePath := filepath.Join(dir, "trace.hgdbstore")
	if err := os.WriteFile(vcdPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, []byte("$enddefinitions $end\n#5\n#3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := IndexFile(vcdPath, storePath, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IndexFile(badPath, storePath, StoreOptions{}); err == nil {
		t.Fatal("IndexFile accepted a regressed-timestamp trace")
	}
	got, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatalf("failed re-index removed the store: %v", err)
	}
	if !bytes.Equal(got, good) {
		t.Fatalf("failed re-index changed the store (%d bytes, was %d)", len(got), len(good))
	}
	assertOnlyFiles(t, dir, "bad.vcd", "trace.hgdbstore", "trace.vcd")
}

// assertOnlyFiles fails unless dir holds exactly the named entries.
func assertOnlyFiles(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("%s holds %q, want %q", dir, got, want)
	}
}

// TestBlockCacheEviction pins the block LRU byte bound: with a cache
// smaller than the trace, repeated point queries across many blocks
// stay correct while resident cache bytes never exceed the bound.
func TestBlockCacheEviction(t *testing.T) {
	data, _ := recordDesign(t, 300)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Largest single block sets the floor for a useful bound.
	maxBlock := 0
	for i := range mem.blocks {
		if len(mem.blocks[i].buf) > maxBlock {
			maxBlock = len(mem.blocks[i].buf)
		}
	}
	disk := writeOpen(t, data, 8, OpenOptions{BlockCacheBytes: 2 * maxBlock})
	tr := mem
	names := tr.SignalNames()
	rng := xorshift(42)
	for q := 0; q < 2000; q++ {
		name := names[rng.next()%uint64(len(names))]
		tm := rng.next() % (tr.MaxTime + 1)
		ms, _ := tr.Signal(name)
		ds, _ := disk.Signal(name)
		if got, want := ds.ValueAt(tm), ms.ValueAt(tm); got != want {
			t.Fatalf("%s@%d = %d, want %d", name, tm, got, want)
		}
		if got := disk.cache.bytes(); got > 2*maxBlock {
			t.Fatalf("cache bytes %d over bound %d", got, 2*maxBlock)
		}
	}
	if disk.cache.bytes() == 0 {
		t.Fatal("cache never held a block")
	}
	if err := disk.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptBlockPoisons flips bytes in the block-data region and
// checks the failure mode the decoder hardening bought: queries
// terminate (no fabricated records, no infinite loop) and the store
// reports a sticky error instead of silently serving garbage.
func TestCorruptBlockPoisons(t *testing.T) {
	data, _ := recordDesign(t, 100)
	mem, err := ParseStore(bytes.NewReader(data), StoreOptions{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The writer puts block data right after the header; stomp the
	// last 64 bytes of that section so several blocks are damaged.
	raw := indexBytes(t, data, 8)
	end := headerSize
	for i := range mem.blocks {
		end += len(mem.blocks[i].buf)
	}
	for i := end - 64; i < end; i++ {
		raw[i] ^= 0xA5
	}
	disk, err := OpenStore(bytes.NewReader(raw), int64(len(raw)), OpenOptions{})
	if err != nil {
		t.Fatalf("damage confined to block data failed the open: %v", err)
	}
	state := disk.NewState()
	disk.ApplyUpTo(Cursor{}, disk.MaxTime, state) // must terminate
	for _, name := range disk.SignalNames() {
		ds, _ := disk.Signal(name)
		for tm := uint64(0); tm <= disk.MaxTime; tm += 5 {
			ds.ValueAt(tm)
		}
	}
	disk.Materialize(disk.SignalNames()...)
	if disk.Err() == nil {
		t.Fatal("corrupt block data went undetected")
	}
}

// TestBlockReaderHostile pins the decoder validation directly: corrupt
// varint streams must stop with an error, never fabricate records or
// loop forever (a zero-size record once made commit stop advancing).
func TestBlockReaderHostile(t *testing.T) {
	hostile := [][]byte{
		{0x80},                         // unterminated varint
		{0x01, 0x80},                   // good sig, unterminated delta
		{0x01, 0x01, 0x80},             // good sig+delta, unterminated bits
		bytes.Repeat([]byte{0x80}, 32), // run of continuation bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // uvarint overflow
	}
	for i, buf := range hostile {
		r := blockReader{buf: buf}
		steps := 0
		for {
			rec, ok := r.next()
			if !ok {
				break
			}
			r.commit(rec)
			if steps++; steps > len(buf) {
				t.Fatalf("case %d: reader did not terminate", i)
			}
		}
		if r.err == nil && r.off < len(buf) {
			t.Fatalf("case %d: stopped early without error", i)
		}
	}
	// A valid stream still decodes cleanly.
	var good []byte
	good = binary.AppendUvarint(good, 3<<2) // head: sig 3, known, narrow
	good = binary.AppendUvarint(good, 7)    // delta
	good = binary.AppendUvarint(good, 99)   // value word
	r := blockReader{buf: good, time: 100}
	rec, ok := r.next()
	if !ok || r.err != nil || rec.sig != 3 || rec.time != 107 || rec.v0 != 99 || rec.x0 != 0 {
		t.Fatalf("valid stream misdecoded: %+v ok=%v err=%v", rec, ok, r.err)
	}
	// A four-state wide record round-trips through appendRecord.
	b, err := val.ParseVCD("1x"+strings.Repeat("01", 40), 82)
	if err != nil {
		t.Fatal(err)
	}
	enc := appendRecord(nil, 5, 9, b)
	r = blockReader{buf: enc, time: 100}
	rec, ok = r.next()
	if !ok || r.err != nil || rec.sig != 5 || rec.time != 109 {
		t.Fatalf("wide record misdecoded: %+v ok=%v err=%v", rec, ok, r.err)
	}
	if got := rec.bits(82); !got.CaseEq(b) {
		t.Fatalf("wide record value = %s, want %s", got.String(), b.String())
	}
}

// TestOpenStoreHostile mutates a valid store's header and metadata in
// targeted ways; every mutation must be rejected at open (or at worst
// poison the store on first touch), never panic, hang, or over-allocate.
func TestOpenStoreHostile(t *testing.T) {
	data, _ := recordDesign(t, 60)
	valid := indexBytes(t, data, 8)
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	put64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	cases := []struct {
		name     string
		mutate   func(b []byte) []byte
		notStore bool // must report ErrNotStore specifically
	}{
		{"empty", func(b []byte) []byte { return nil }, true},
		{"short", func(b []byte) []byte { return b[:headerSize-1] }, true},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, true},
		{"bad version", func(b []byte) []byte { put32(b, 8, 99); return b }, false},
		{"zero block size", func(b []byte) []byte { put64(b, 24, 0); return b }, false},
		{"section count bomb", func(b []byte) []byte { put32(b, 12, 1<<30); return b }, false},
		{"section table past EOF", func(b []byte) []byte { put64(b, 16, uint64(len(b))); return b }, false},
		{"signal count bomb", func(b []byte) []byte { put32(b, 40, 1<<31); return b }, false},
		{"block count bomb", func(b []byte) []byte { put32(b, 44, 1<<31); return b }, false},
		{"change count bomb", func(b []byte) []byte { put64(b, 48, 1<<62); return b }, false},
		{"truncated metadata", func(b []byte) []byte { return b[:headerSize+40] }, false},
		// The writer puts the metadata and the section table after the
		// block data, so a cut tail loses the table.
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-len(b)/4] }, false},
		{"short block section", func(b []byte) []byte {
			tableOff := binary.LittleEndian.Uint64(b[16:24])
			for e := tableOff; e+20 <= uint64(len(b)); e += 20 {
				if binary.LittleEndian.Uint32(b[e:]) == secBlocks {
					put64(b, int(e)+12, binary.LittleEndian.Uint64(b[e+12:])/2)
				}
			}
			return b
		}, false},
	}
	for _, tc := range cases {
		b := tc.mutate(append([]byte(nil), valid...))
		st, err := OpenStore(bytes.NewReader(b), int64(len(b)), OpenOptions{})
		if tc.notStore {
			if !errors.Is(err, ErrNotStore) {
				t.Fatalf("%s: err = %v, want ErrNotStore", tc.name, err)
			}
			continue
		}
		if err == nil {
			// A mutation that leaves the metadata intact must surface
			// as a sticky error on first touch, not as fabricated
			// values.
			state := st.NewState()
			st.ApplyUpTo(Cursor{}, st.MaxTime, state)
			if st.Err() == nil {
				t.Fatalf("%s: opened and served without error", tc.name)
			}
			continue
		}
		if errors.Is(err, ErrNotStore) {
			t.Fatalf("%s: misclassified as not-a-store: %v", tc.name, err)
		}
	}
}

// FuzzOpenStore throws hostile bytes at the full open + query path.
// Any input may be rejected; accepted inputs must be served without
// panics, hangs, or unbounded allocation, and corruption discovered
// lazily must poison the store rather than fabricate history.
func FuzzOpenStore(f *testing.F) {
	// Seeds: a valid store, a truncation, a bit flip, raw VCD text.
	data, _ := recordDesign(f, 40)
	valid := indexBytes(f, data, 8)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(data)
	f.Add([]byte("hgdbstor"))
	// Four-state + >64-bit seed: x at reset on a 128-bit bus, mixed
	// x/z vectors later — exercises the mask-plane record paths.
	fourState := []byte("$scope module top $end\n" +
		"$var wire 8 ! st $end\n" +
		"$var wire 128 \" bus $end\n" +
		"$upscope $end\n$enddefinitions $end\n" +
		"#0\nbxxxxxxxx !\nb" + strings.Repeat("x", 128) + " \"\n" +
		"#4\nb1x0z1010 !\nb1" + strings.Repeat("0", 126) + "1 \"\n" +
		"#9\nb10101010 !\nb" + strings.Repeat("10", 64) + " \"\n")
	f.Add(indexBytes(f, fourState, 4))
	f.Add(fourState)
	// A version-1 file, which OpenStore refuses at the header; a
	// mutation that reaches the version word opens the rest.
	f.Add(buildV1Store(f))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := OpenStore(bytes.NewReader(b), int64(len(b)), OpenOptions{BlockCacheBytes: 1 << 16})
		if err != nil {
			return
		}
		// Bounded exercise of every read path.
		names := st.SignalNames()
		if len(names) > 16 {
			names = names[:16]
		}
		times := []uint64{0, 1, st.BlockSize(), st.BlockSize() * 3, st.MaxTime}
		for _, name := range names {
			ts, _ := st.Signal(name)
			for _, tm := range times {
				ts.ValueAt(tm)
			}
		}
		state := st.NewState()
		var cur Cursor
		for _, tm := range times {
			if tm < cur.Time {
				continue
			}
			cur = st.ApplyUpTo(cur, tm, state)
			st.NextChangeTime(cur)
		}
		st.Materialize(names...)
		for _, name := range names {
			ts, _ := st.Signal(name)
			ts.ValueAt(st.MaxTime)
		}
	})
}

// buildV1Store hand-assembles a version-1 store file: two-state
// three-varint records, plain single-word last-value rows, no x/z
// header statistics — the files an older hgdb-index wrote before the
// four-state format bump.
func buildV1Store(t testing.TB) []byte {
	t.Helper()
	// Signals: top.a (8 bits, changes at t=0→1 and t=5→9) and
	// top.b (1 bit, change at t=0→1). One 16-tick block, window 0.
	blockData := []byte{}
	blockData = binary.AppendUvarint(blockData, 0) // sig 0
	blockData = binary.AppendUvarint(blockData, 0) // t=0
	blockData = binary.AppendUvarint(blockData, 1) // v=1
	blockData = binary.AppendUvarint(blockData, 1) // sig 1
	blockData = binary.AppendUvarint(blockData, 0) // t=0
	blockData = binary.AppendUvarint(blockData, 1) // v=1
	blockData = binary.AppendUvarint(blockData, 0) // sig 0
	blockData = binary.AppendUvarint(blockData, 5) // t=5
	blockData = binary.AppendUvarint(blockData, 9) // v=9

	blockDir := []byte{}
	blockDir = binary.AppendUvarint(blockDir, 0) // window 0
	blockDir = binary.AppendUvarint(blockDir, uint64(len(blockData)))
	blockDir = binary.AppendUvarint(blockDir, uint64(crc32.Checksum(blockData, crcTable)))

	// Strings: 0="top.a", 1="top.b", 2="top".
	strTab := []byte{}
	names := []string{"top.a", "top.b", "top"}
	strTab = binary.AppendUvarint(strTab, uint64(len(names)))
	for _, s := range names {
		strTab = binary.AppendUvarint(strTab, uint64(len(s)))
		strTab = append(strTab, s...)
	}

	// v1 signal rows: name ref, width, change count, sparse index, then
	// one plain last-value word per indexed block.
	signals := []byte{}
	signals = binary.AppendUvarint(signals, 0) // top.a
	signals = binary.AppendUvarint(signals, 8)
	signals = binary.AppendUvarint(signals, 2)
	signals = binary.AppendUvarint(signals, 1) // one indexed block
	signals = binary.AppendUvarint(signals, 0) // block slot 0
	signals = binary.AppendUvarint(signals, 9) // last value in block
	signals = binary.AppendUvarint(signals, 1) // top.b
	signals = binary.AppendUvarint(signals, 1)
	signals = binary.AppendUvarint(signals, 1)
	signals = binary.AppendUvarint(signals, 1)
	signals = binary.AppendUvarint(signals, 0)
	signals = binary.AppendUvarint(signals, 1)

	// Hierarchy: one node "top" owning both signals.
	hier := []byte{}
	hier = binary.AppendUvarint(hier, 1) // node count
	hier = binary.AppendUvarint(hier, 2) // name ref "top"
	hier = binary.AppendUvarint(hier, 2) // two signals
	hier = binary.AppendUvarint(hier, 0)
	hier = binary.AppendUvarint(hier, 1)
	hier = binary.AppendUvarint(hier, 0) // no children

	secs := []struct {
		id   uint32
		data []byte
	}{
		{secBlockDir, blockDir},
		{secSignals, signals},
		{secStrings, strTab},
		{secHier, hier},
		{secBlocks, blockData},
	}
	tableOff := uint64(headerSize)
	dataOff := tableOff + uint64(len(secs)*20)
	var table, body []byte
	for _, s := range secs {
		var tmp [20]byte
		binary.LittleEndian.PutUint32(tmp[0:4], s.id)
		binary.LittleEndian.PutUint64(tmp[4:12], dataOff)
		binary.LittleEndian.PutUint64(tmp[12:20], uint64(len(s.data)))
		table = append(table, tmp[:]...)
		body = append(body, s.data...)
		dataOff += uint64(len(s.data))
	}

	h := make([]byte, headerSize)
	copy(h[0:8], storeMagic[:])
	binary.LittleEndian.PutUint32(h[8:12], 1) // format version 1
	binary.LittleEndian.PutUint32(h[12:16], uint32(len(secs)))
	binary.LittleEndian.PutUint64(h[16:24], tableOff)
	binary.LittleEndian.PutUint64(h[24:32], 16) // block size
	binary.LittleEndian.PutUint64(h[32:40], 5)  // max time
	binary.LittleEndian.PutUint32(h[40:44], 2)  // signals
	binary.LittleEndian.PutUint32(h[44:48], 1)  // blocks
	binary.LittleEndian.PutUint64(h[48:56], 3)  // changes
	// h[56:64]: the v1 masked-wide-change statistic; left zero.
	return append(append(h, table...), body...)
}

// TestOpenStoreV1Legacy: a legacy version-1 store is refused at the
// header with an error that says to re-index, not misclassified as some
// other file and never decoded.
func TestOpenStoreV1Legacy(t *testing.T) {
	raw := buildV1Store(t)
	_, err := OpenStore(bytes.NewReader(raw), int64(len(raw)), OpenOptions{})
	if err == nil {
		t.Fatal("version-1 store opened")
	}
	if errors.Is(err, ErrNotStore) {
		t.Fatalf("version-1 store misclassified as not-a-store: %v", err)
	}
	for _, want := range []string{"version 1", "re-index"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestOpenStoreNewerVersion pins forward negotiation: a store stamped
// with a future format version must fail with the explicit
// newer-version error, not a generic corruption message and never a
// misdecode.
func TestOpenStoreNewerVersion(t *testing.T) {
	data, _ := recordDesign(t, 20)
	raw := indexBytes(t, data, 8)
	binary.LittleEndian.PutUint32(raw[8:12], StoreVersion+1)
	_, err := OpenStore(bytes.NewReader(raw), int64(len(raw)), OpenOptions{})
	if err == nil {
		t.Fatal("newer-version store opened")
	}
	if errors.Is(err, ErrNotStore) {
		t.Fatalf("newer version misclassified as not-a-store: %v", err)
	}
	for _, want := range []string{"newer", fmt.Sprintf("version %d", StoreVersion+1), "re-index"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
