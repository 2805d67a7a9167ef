package vcd

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rtl"
	"repro/internal/val"
)

// This file is the trace index: a streaming, single-pass parse that
// emits change records into fixed-size time blocks instead of
// per-signal in-memory slices. Signals are decoded lazily — only the
// debugger's breakpoint/watch dependency set is materialized into
// binary-searchable timelines (Materialize); everything else stays as
// compact varint records until a query or a replay state sweep touches
// it. See DESIGN.md "Trace index & checkpointing" for the format and the
// complexity analysis.

// DefaultBlockSize is the time-window width of one store block. 64
// cycles keeps single-block decodes (the unit of work for a lazy
// value-at-time query) small while amortizing per-block overhead across
// enough records to matter.
const DefaultBlockSize = 64

// StoreOptions configures ParseStore.
type StoreOptions struct {
	// BlockSize is the time-window width of each block (0 = default).
	BlockSize uint64
}

// storeBlock holds every change in one time window
// [win*bs, (win+1)*bs) as a compact record stream: uvarint(signal
// index), uvarint(time delta from the previous record in the block, or
// from the window start for the first), uvarint(value bits). Records
// are in file order, which is non-decreasing time order, so
// last-write-wins replay is correct. Blocks are SPARSE over time: only
// windows containing at least one change exist, in ascending window
// order, so store memory is O(changes) even when timestamps are huge
// (real simulator dumps count timescale units, not cycles — a 1 s run
// at 1 ps timescale ends at #1e12).
//
// In a parsed store (ParseStore) buf holds the resident record bytes.
// In a disk-backed store (OpenStore) buf stays nil and off/length/crc
// locate and authenticate the record stream in the backing file;
// Store.blockData loads it on demand through a byte-bounded LRU.
type storeBlock struct {
	win uint64 // window index: this block covers [win*bs, (win+1)*bs)
	buf []byte
	// last is the absolute time of the final appended record; parse-time
	// helper for delta encoding.
	last uint64

	// Disk location (OpenStore only).
	off    int64
	length uint32
	crc    uint32
}

// timeline is a signal's fully decoded change history, packed
// four-state planes included. It is built complete before being
// published, and immutable afterwards.
type timeline struct {
	times []uint64
	pl    planeSeq
}

// StoreSignal is one signal in a block store: always its per-block
// sparse index (which blocks it changed in, and its final value within
// each), plus — only after Materialize — the fully decoded timeline.
type StoreSignal struct {
	Name  string
	Width int

	store *Store
	index int
	n     int // total change count
	// gen is the timeline-LRU recency stamp: the Store.tlGen value of
	// the last Materialize call that advised this signal. Guarded by
	// Store.mu.
	gen uint64

	// Sparse change runs: blkIdx lists the store's block SLOTS this
	// signal changed in (ascending; a slot resolves to its time window
	// through store.blocks[slot].win); last holds the signal's packed
	// four-state value after its last change inside that block. Memory
	// is O(blocks touched), not O(changes).
	blkIdx []uint32
	last   planeSeq

	// Materialized timeline; nil until Materialize decodes it.
	// Published atomically only once fully built, so readers on other
	// goroutines (the debugger's server connections) either see the
	// complete timeline or fall back to the block index — never a
	// partial decode.
	tl atomic.Pointer[timeline]
}

// Index returns the signal's dense index into replay state arrays.
func (ts *StoreSignal) Index() int { return ts.index }

// NumChanges returns how many value changes were recorded.
func (ts *StoreSignal) NumChanges() int { return ts.n }

// Materialized reports whether the full timeline has been decoded.
func (ts *StoreSignal) Materialized() bool { return ts.tl.Load() != nil }

// ValueAt returns the signal's two-state value word at time t (the
// most recent change at or before t; zero before the first change).
// Unknown bits read as 0 and bits above 64 are not visible; BitsAt
// returns the full four-state value. Materialized signals answer by
// binary search over the decoded timeline; unmaterialized signals
// binary-search the sparse block index and decode at most one block.
func (ts *StoreSignal) ValueAt(t uint64) uint64 {
	b, ok := ts.lookupAt(t)
	if !ok {
		return 0
	}
	return b.V0
}

// BitsAt returns the signal's full four-state value at time t (known
// zero of the declared width before the first change). The result may
// alias immutable store planes.
func (ts *StoreSignal) BitsAt(t uint64) val.Bits {
	b, ok := ts.lookupAt(t)
	if !ok {
		return val.Bits{Width: maxInt(ts.Width, 1)}
	}
	return b
}

// lookupAt is the shared value-at-time query; ok is false before the
// first change.
func (ts *StoreSignal) lookupAt(t uint64) (val.Bits, bool) {
	width := maxInt(ts.Width, 1)
	if tl := ts.tl.Load(); tl != nil {
		i := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > t })
		if i == 0 {
			return val.Bits{}, false
		}
		return tl.pl.bits(i-1, width), true
	}
	b := t / ts.store.blockSize
	// Latest indexed block whose window is at or before b.
	blocks := ts.store.blocks
	k := sort.Search(len(ts.blkIdx), func(i int) bool { return blocks[ts.blkIdx[i]].win > b }) - 1
	if k < 0 {
		return val.Bits{}, false
	}
	if slot := int(ts.blkIdx[k]); blocks[slot].win == b {
		if rec, ok := ts.store.scanBlockFor(slot, ts.index, t); ok {
			return rec.bits(width), true
		}
		// Every change of this signal in window b is after t; the
		// previous indexed block's final value rules.
		k--
		if k < 0 {
			return val.Bits{}, false
		}
	}
	return ts.last.bits(k, width), true
}

// Store is a parsed VCD file held as a time-blocked change index. It
// is built either by ParseStore (all blocks resident) or by OpenStore
// (blocks load lazily from the on-disk format; see diskstore.go).
type Store struct {
	Hierarchy *rtl.InstanceNode
	MaxTime   uint64
	Stats     ParseStats

	blockSize uint64
	sigs      map[string]*StoreSignal
	list      []*StoreSignal // by dense index
	blocks    []storeBlock
	changes   int

	// v1 marks a store opened from a version-1 file: block record
	// streams use the legacy 3-varint two-state encoding (values were
	// masked to their low 64 bits at index time), read-only.
	v1 bool

	// Packed replay-state layout: signal i's planes live at word
	// offset wordOff[i], sigWords(width) words each, stateWords total.
	// Computed once the signal list is final (finalizeLayout).
	wordOff    []int32
	stateWords int

	// Disk backing (OpenStore only): blocks read through src into a
	// byte-bounded LRU cache. closer is the owned file handle, if any.
	src    io.ReaderAt
	cache  *blockCache
	closer io.Closer

	// failure is the sticky first decode/IO error. Record streams are
	// hostile-input surfaces once blocks come from disk: a corrupt
	// stream stops the walk that found it and poisons the store rather
	// than fabricating records. Checked via Err.
	failure atomic.Pointer[storeError]

	// mu serializes lazy materialization (Materialize may be called
	// from the debugger's arm path while a server goroutine reads other
	// signals) and guards the timeline-LRU bookkeeping below.
	mu sync.Mutex
	// tlGen counts Materialize calls; tlBudget bounds the total bytes
	// of resident materialized timelines (0 = DefaultTimelineBudget).
	tlGen    uint64
	tlBudget int
}

type storeError struct{ err error }

// setErr records the first decode/IO error; later errors keep the
// original (most diagnostic) one.
func (s *Store) setErr(err error) {
	s.failure.CompareAndSwap(nil, &storeError{err: err})
}

// Err returns the sticky first block decode or IO error, if any. Once
// set, record walks stop at the corrupt block instead of fabricating
// records; callers serving values should surface it.
func (s *Store) Err() error {
	if e := s.failure.Load(); e != nil {
		return e.err
	}
	return nil
}

// Close releases the backing file of a disk-opened store. It is a
// no-op for parsed stores.
func (s *Store) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// finalizeLayout computes the packed replay-state layout; called once
// the signal list is final (end of parse, or open).
func (s *Store) finalizeLayout() {
	s.wordOff = make([]int32, len(s.list))
	off := 0
	for i, ts := range s.list {
		s.wordOff[i] = int32(off)
		off += ts.nw()
	}
	s.stateWords = off
}

// nw returns the signal's per-entry plane word count.
func (ts *StoreSignal) nw() int { return sigWords(maxInt(ts.Width, 1)) }

// State is a full packed signal-state array: every signal's value and
// unknown-bit planes at one instant, laid out per Store.finalizeLayout.
// Build with NewState, advance with ApplyUpTo, read with StateBits.
type State struct {
	V, X []uint64
}

// NewState allocates a zeroed state array sized for the store.
func (s *Store) NewState() *State {
	return &State{V: make([]uint64, s.stateWords), X: make([]uint64, s.stateWords)}
}

// Zero resets the state to all-known zero.
func (st *State) Zero() {
	for i := range st.V {
		st.V[i] = 0
		st.X[i] = 0
	}
}

// CopyFrom overwrites st with src (same store layout).
func (st *State) CopyFrom(src *State) {
	copy(st.V, src.V)
	copy(st.X, src.X)
}

// Clone returns an independent copy of the state.
func (st *State) Clone() *State {
	c := &State{V: make([]uint64, len(st.V)), X: make([]uint64, len(st.X))}
	c.CopyFrom(st)
	return c
}

// StateBits reads one signal's four-state value out of a state array.
// The result is an independent copy — later ApplyUpTo sweeps over the
// same state cannot mutate it.
func (s *Store) StateBits(st *State, ts *StoreSignal) val.Bits {
	off, nw := int(s.wordOff[ts.index]), ts.nw()
	return val.FromPlanes(st.V[off:off+nw], st.X[off:off+nw], maxInt(ts.Width, 1))
}

// storeIngest is the shared single-pass ingest core behind ParseStore
// and IndexFile: it encodes change events into block record streams
// and maintains the per-signal sparse index. Completed blocks are
// handed to emit in slot order — ParseStore keeps them resident,
// IndexFile streams them to disk while the parse continues.
type storeIngest struct {
	bs      uint64
	st      *Store
	byID    map[string]*StoreSignal
	scratch []byte // reusable record-encoding buffer
	cur     storeBlock
	have    bool
	slot    int // index the current block will get when emitted
	emit    func(slot int, blk storeBlock)
}

func newStoreIngest(bs uint64, emit func(slot int, blk storeBlock)) *storeIngest {
	return &storeIngest{
		bs:   bs,
		st:   &Store{blockSize: bs, sigs: map[string]*StoreSignal{}},
		byID: map[string]*StoreSignal{},
		emit: emit,
	}
}

// vardecl declares a signal: its id code, bit width and full
// hierarchical path.
func (g *storeIngest) vardecl(id string, width int, full string) {
	ts := &StoreSignal{Name: full, Width: width, store: g.st, index: len(g.st.list)}
	ts.last.nw = ts.nw()
	g.st.sigs[full] = ts
	g.st.list = append(g.st.list, ts)
	g.byID[id] = ts
}

// appendRecord encodes one v2 change record:
//
//	uvarint(sig<<2 | hasX | wide<<1)  header: signal index + plane flags
//	uvarint(dt)                       time delta from the block cursor
//	uvarint(value word 0)
//	[uvarint(x word 0)]               if hasX
//	if wide: uvarint(k), k value words, then (if hasX) k x words
//
// A fully known narrow change — the overwhelmingly common case — costs
// exactly the three varints the v1 format did.
func appendRecord(dst []byte, sig int, dt uint64, b val.Bits) []byte {
	hasX := b.HasX()
	wide := b.Words() > 1
	head := uint64(sig) << 2
	if hasX {
		head |= 1
	}
	if wide {
		head |= 2
	}
	dst = putUvarint(dst, head)
	dst = putUvarint(dst, dt)
	dst = putUvarint(dst, b.Word(0))
	if hasX {
		dst = putUvarint(dst, b.XWord(0))
	}
	if wide {
		k := b.Words() - 1
		dst = putUvarint(dst, uint64(k))
		for i := 1; i <= k; i++ {
			dst = putUvarint(dst, b.Word(i))
		}
		if hasX {
			for i := 1; i <= k; i++ {
				dst = putUvarint(dst, b.XWord(i))
			}
		}
	}
	return dst
}

// change ingests one value change for a declared id at absolute time t
// (non-decreasing across calls). lit is the raw MSB-first literal —
// characters from 01xXzZ, already validated by scanVCD — not yet
// extended or truncated to the signal's declared width.
func (g *storeIngest) change(id string, t uint64, lit string) {
	ts, ok := g.byID[id]
	if !ok {
		return
	}
	b, perr := val.ParseVCD(lit, maxInt(ts.Width, 1))
	if perr != nil {
		return // unreachable: the scanner validated the literal
	}
	win := t / g.bs
	// Timestamps never decrease (enforced by scanVCD), so a new window
	// always follows the current one — empty windows between changes
	// are never allocated.
	if !g.have {
		g.cur = storeBlock{win: win, last: win * g.bs}
		g.have = true
	} else if g.cur.win != win {
		g.emit(g.slot, g.cur)
		g.slot++
		g.cur = storeBlock{win: win, last: win * g.bs}
	}
	g.scratch = appendRecord(g.scratch[:0], ts.index, t-g.cur.last, b)
	g.cur.buf = append(g.cur.buf, g.scratch...)
	g.cur.last = t
	g.st.changes++
	if k := len(ts.blkIdx); k > 0 && int(ts.blkIdx[k-1]) == g.slot {
		ts.last.setLast(b)
	} else {
		ts.blkIdx = append(ts.blkIdx, uint32(g.slot))
		ts.last.appendBits(b)
	}
	ts.n++
}

// finish emits the final partially filled block.
func (g *storeIngest) finish() {
	if g.have {
		g.emit(g.slot, g.cur)
		g.slot++
		g.have = false
	}
}

// ParseStore reads a VCD stream in a single pass into a block store.
// Peak memory is the compact record encoding (a few bytes per change in
// shared block buffers) plus the per-signal sparse block index — no
// per-signal change slices are built until Materialize asks for them.
func ParseStore(rd io.Reader, opts StoreOptions) (*Store, error) {
	bs := opts.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	var g *storeIngest
	g = newStoreIngest(bs, func(_ int, blk storeBlock) {
		g.st.blocks = append(g.st.blocks, blk)
	})
	if err := scanVCD(rd, g); err != nil {
		return nil, err
	}
	g.finish()
	g.st.finalizeLayout()
	return g.st, nil
}

// BlockSize returns the store's time-window width.
func (s *Store) BlockSize() uint64 { return s.blockSize }

// NumBlocks returns how many time blocks the store holds.
func (s *Store) NumBlocks() int { return len(s.blocks) }

// NumChanges returns the total change-record count across all signals.
func (s *Store) NumChanges() int { return s.changes }

// NumSignals returns the number of declared signals (the length replay
// state arrays must have).
func (s *Store) NumSignals() int { return len(s.list) }

// Signal returns a signal by full hierarchical path.
func (s *Store) Signal(path string) (*StoreSignal, bool) {
	ts, ok := s.sigs[path]
	return ts, ok
}

// SignalByIndex returns the signal whose dense index (StoreSignal.Index)
// is i.
func (s *Store) SignalByIndex(i int) (*StoreSignal, bool) {
	if uint(i) >= uint(len(s.list)) {
		return nil, false
	}
	return s.list[i], true
}

// SignalNames returns all signal paths, sorted.
func (s *Store) SignalNames() []string {
	names := make([]string, 0, len(s.sigs))
	for n := range s.sigs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// record is one decoded change: which signal, at what absolute time,
// to what four-state value, and how many encoded bytes it occupied.
// The planes are raw words: v0/x0 hold bits 0..63, vh/xh (nil for
// narrow or fully known records) the rest. The width comes from the
// signal declaration, not the record.
type record struct {
	sig    int
	time   uint64
	v0, x0 uint64
	vh, xh []uint64
	size   int
}

// bits assembles the record's value at the signal's declared width.
func (rec record) bits(width int) val.Bits {
	b := val.Bits{Width: width, V0: rec.v0, X0: rec.x0, VH: rec.vh, XH: rec.xh}
	if width <= 64 {
		b.VH, b.XH = nil, nil
	}
	return b
}

// maxPlaneWords bounds a hostile record's declared extra-word count
// (maxSignalWidth bits of planes).
const maxPlaneWords = maxSignalWidth / 64

// blockReader iterates a block's compact record stream. It is the one
// place the record encoding (see appendRecord; v1 streams are the
// legacy three-varint form) is decoded; every consumer — lazy point
// queries, materialization, state sweeps — shares it so the format
// cannot desynchronize between them. next decodes without consuming;
// commit consumes, which is what lets ApplyUpTo stop exactly before
// the first record past its target time.
//
// The stream is a hostile-input surface once blocks come from disk:
// next validates every varint's byte count and bounds every declared
// word count, so a truncated or corrupt buffer yields a decode error
// (in r.err) instead of fabricated records or a zero-size record that
// would stop commit from advancing.
type blockReader struct {
	buf  []byte
	off  int
	time uint64 // delta base: window start, or a resumed cursor's time
	v1   bool   // legacy three-varint record format
	err  error
}

// blockData returns block slot b's record bytes. Parsed stores answer
// from the resident buffer; disk stores consult the LRU cache and load
// (CRC-checked and stream-validated) from the backing file on a miss.
// A load or validation failure poisons the store (Err) and returns nil
// — the walk sees an empty block and stops fabricating nothing.
func (s *Store) blockData(b int) []byte {
	if s.src == nil {
		return s.blocks[b].buf
	}
	return s.loadBlock(b)
}

// reader returns a blockReader positioned at the start of block slot b.
func (s *Store) reader(b int) blockReader {
	return blockReader{buf: s.blockData(b), time: s.blocks[b].win * s.blockSize, v1: s.v1}
}

var errCorruptRecord = fmt.Errorf("vcd: corrupt block record stream")

// uv decodes one uvarint at offset off, accumulating the record size.
func (r *blockReader) uv(off *int, what string) (uint64, bool) {
	v, n := binary.Uvarint(r.buf[*off:])
	if n <= 0 {
		r.err = fmt.Errorf("%w: bad %s varint at byte %d", errCorruptRecord, what, *off)
		return 0, false
	}
	*off += n
	return v, true
}

func (r *blockReader) next() (record, bool) {
	if r.err != nil || r.off >= len(r.buf) {
		return record{}, false
	}
	off := r.off
	head, ok := r.uv(&off, "signal index")
	if !ok {
		return record{}, false
	}
	dt, ok := r.uv(&off, "time delta")
	if !ok {
		return record{}, false
	}
	v0, ok := r.uv(&off, "value")
	if !ok {
		return record{}, false
	}
	if r.v1 {
		return record{sig: int(head), time: r.time + dt, v0: v0, size: off - r.off}, true
	}
	rec := record{sig: int(head >> 2), time: r.time + dt, v0: v0}
	hasX := head&1 != 0
	wide := head&2 != 0
	if hasX {
		if rec.x0, ok = r.uv(&off, "x plane"); !ok {
			return record{}, false
		}
	}
	if wide {
		k, ok := r.uv(&off, "word count")
		if !ok {
			return record{}, false
		}
		if k == 0 || k > maxPlaneWords {
			r.err = fmt.Errorf("%w: implausible %d extra value words at byte %d", errCorruptRecord, k, r.off)
			return record{}, false
		}
		rec.vh = make([]uint64, k)
		for i := range rec.vh {
			if rec.vh[i], ok = r.uv(&off, "value word"); !ok {
				return record{}, false
			}
		}
		if hasX {
			rec.xh = make([]uint64, k)
			for i := range rec.xh {
				if rec.xh[i], ok = r.uv(&off, "x word"); !ok {
					return record{}, false
				}
			}
		}
	}
	rec.size = off - r.off
	return rec, true
}

func (r *blockReader) commit(rec record) {
	r.off += rec.size
	r.time = rec.time
}

// fail records a reader's decode error against the store, positioned
// with the block slot it came from.
func (s *Store) fail(b int, err error) {
	s.setErr(fmt.Errorf("vcd: block %d (window %d): %w", b, s.blocks[b].win, err))
}

// scanBlockFor decodes block b looking for the last change of signal
// idx at or before t.
func (s *Store) scanBlockFor(b, idx int, t uint64) (record, bool) {
	r := s.reader(b)
	var last record
	found := false
	for {
		rec, ok := r.next()
		if !ok || rec.time > t {
			break
		}
		r.commit(rec)
		if rec.sig == idx {
			last, found = rec, true
		}
	}
	if r.err != nil {
		s.fail(b, r.err)
	}
	return last, found
}

// Materialize decodes the full timelines of the named signals so their
// ValueAt queries become binary searches with no block decoding — this
// is the lazy-materialization hook the debugger uses for its
// breakpoint/watch dependency union. Signals already materialized (or
// unknown) are skipped; decoding shares one pass per block across all
// requested signals.
func (s *Store) Materialize(paths ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tlGen++
	// byIdx maps signal index → pending timeline, so block decoding is
	// O(records) however many signals the union names; want collects
	// which blocks need decoding at all. Pending timelines stay private
	// to this call until fully built; they are published atomically at
	// the end so concurrent readers never see a partial decode.
	var pend map[*StoreSignal]*timeline
	var byIdx []*timeline
	var want map[uint32]bool
	for _, p := range paths {
		ts, ok := s.sigs[p]
		if !ok {
			continue
		}
		// Recency touch for the timeline LRU: every advised signal —
		// already materialized or about to be — belongs to the current
		// dependency union and is the last to be evicted.
		ts.gen = s.tlGen
		if ts.Materialized() {
			continue
		}
		if byIdx == nil {
			// Deferred until a signal actually needs decoding: Prefetch
			// re-advises the whole union on every breakpoint change, and
			// the already-materialized case must stay allocation-free.
			pend = map[*StoreSignal]*timeline{}
			byIdx = make([]*timeline, len(s.list))
			want = map[uint32]bool{}
		} else if _, dup := pend[ts]; dup {
			continue
		}
		// A zero-change signal gets an empty non-nil timeline, which is
		// enough to mark it materialized.
		tl := &timeline{times: make([]uint64, 0, ts.n)}
		tl.pl.nw = ts.nw()
		tl.pl.v = make([]uint64, 0, ts.n*tl.pl.nw)
		pend[ts] = tl
		byIdx[ts.index] = tl
		for _, bi := range ts.blkIdx {
			want[bi] = true
		}
	}
	if len(pend) == 0 {
		s.evictTimelines()
		return
	}
	order := make([]uint32, 0, len(want))
	for bi := range want {
		order = append(order, bi)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, bi := range order {
		r := s.reader(int(bi))
		for {
			rec, ok := r.next()
			if !ok {
				break
			}
			r.commit(rec)
			if rec.sig < len(byIdx) {
				if tl := byIdx[rec.sig]; tl != nil {
					tl.times = append(tl.times, rec.time)
					tl.pl.appendBits(rec.bits(maxInt(s.list[rec.sig].Width, 1)))
				}
			}
		}
		if r.err != nil {
			// Poison and abort: publishing a partial timeline would make
			// ValueAt silently answer from truncated history.
			s.fail(int(bi), r.err)
			return
		}
	}
	for ts, tl := range pend {
		ts.tl.Store(tl)
	}
	s.evictTimelines()
}

// timelineBytes is a timeline's resident footprint (8 B time per
// change plus the packed value/x planes).
func timelineBytes(tl *timeline) int { return 8*len(tl.times) + tl.pl.byteSize() }

// TimelineBytes returns the resident footprint of all materialized
// timelines.
func (s *Store) TimelineBytes() int {
	total := 0
	for _, ts := range s.list {
		if tl := ts.tl.Load(); tl != nil {
			total += timelineBytes(tl)
		}
	}
	return total
}

// evictTimelines enforces the timeline budget, called with mu held at
// the end of Materialize. When a Materialize call pushes the resident
// set over the budget, the least recently advised timelines are dropped
// back to block-index form — their ValueAt queries fall back to lazy
// block decodes — so the resident set stays flat however many signals
// successive dependency unions name. Eviction is LRU over advise
// generations: signals from older dependency unions go first;
// current-union signals are evicted only if the union alone exceeds
// the budget.
func (s *Store) evictTimelines() {
	budget := s.tlBudget
	if budget <= 0 {
		budget = DefaultTimelineBudget
	}
	total := 0
	var resident []*StoreSignal
	for _, ts := range s.list {
		if tl := ts.tl.Load(); tl != nil {
			total += timelineBytes(tl)
			resident = append(resident, ts)
		}
	}
	if total <= budget {
		return
	}
	sort.Slice(resident, func(i, j int) bool {
		if resident[i].gen != resident[j].gen {
			return resident[i].gen < resident[j].gen
		}
		return resident[i].index < resident[j].index
	})
	for _, ts := range resident {
		if total <= budget {
			break
		}
		tl := ts.tl.Swap(nil)
		if tl != nil {
			total -= timelineBytes(tl)
		}
	}
}

// Cursor is a resumable position in the store's change stream, used by
// replay state sweeps (Store.ApplyUpTo). The zero Cursor is the start
// of the trace.
type Cursor struct {
	// Block is the slot index of the block being read (blocks are
	// sparse over time; slots are in ascending window order).
	Block int
	// Off is the byte offset of the next unread record in that block.
	Off int
	// Time is the absolute time of the last consumed record (the delta
	// base for the next record); block start when Off is 0.
	Time uint64
}

// ApplyUpTo replays every change with time <= t, starting at cursor c,
// into the packed state planes (build with NewState, read with
// StateBits), and returns the advanced cursor. Replaying from the zero
// cursor over a zero state reconstructs exact signal values at t;
// resuming from a saved cursor/state pair costs only the records in
// (cursor, t] — the primitive replay checkpointing is built on. It is
// the store's one cursor-advancing walk, so it alone decides where a
// partially consumed block leaves Off/Time and when a block is left
// for the next slot.
func (s *Store) ApplyUpTo(c Cursor, t uint64, state *State) Cursor {
	if len(state.V) < s.stateWords || len(state.X) < s.stateWords {
		panic(fmt.Sprintf("vcd: ApplyUpTo state too short: %d/%d words < %d",
			len(state.V), len(state.X), s.stateWords))
	}
	for c.Block < len(s.blocks) {
		blockStart := s.blocks[c.Block].win * s.blockSize
		if blockStart > t {
			return c
		}
		if c.Off == 0 {
			c.Time = blockStart
		}
		r := blockReader{buf: s.blockData(c.Block), off: c.Off, time: c.Time, v1: s.v1}
		for {
			rec, ok := r.next()
			if !ok {
				break
			}
			if rec.time > t {
				c.Off, c.Time = r.off, r.time
				return c
			}
			r.commit(rec)
			// rec.sig is validated against the signal list before a block
			// is published (validateBlockStream / trusted parse), so the
			// offset lookup is in range; word counts are clamped to the
			// declared width so a record can never spill into a
			// neighbor's span.
			off, nw := int(s.wordOff[rec.sig]), s.list[rec.sig].nw()
			state.V[off] = rec.v0
			state.X[off] = rec.x0
			for i := 1; i < nw; i++ {
				var v, x uint64
				if i-1 < len(rec.vh) {
					v = rec.vh[i-1]
				}
				if i-1 < len(rec.xh) {
					x = rec.xh[i-1]
				}
				state.V[off+i] = v
				state.X[off+i] = x
			}
		}
		if r.err != nil {
			// Corrupt stream: poison the store and stop the walk where
			// it stands rather than inventing records past the damage.
			s.fail(c.Block, r.err)
			c.Off, c.Time = r.off, r.time
			return c
		}
		// Block exhausted; move on only once t covers its whole window,
		// so a later call never skips records that belong to this block.
		// The next slot's window start (possibly far later — blocks are
		// sparse) is picked up at the top of the loop.
		if blockStart+s.blockSize-1 > t {
			c.Off, c.Time = r.off, r.time
			return c
		}
		c.Block++
		c.Off = 0
	}
	return c
}

// NextChangeTime returns the time of the first change record at or
// after cursor c, if any. Replay sync uses it to jump record-free
// stretches (sparse blocks can leave enormous gaps) without touching
// per-boundary state.
func (s *Store) NextChangeTime(c Cursor) (uint64, bool) {
	for c.Block < len(s.blocks) {
		if c.Off == 0 {
			c.Time = s.blocks[c.Block].win * s.blockSize
		}
		r := blockReader{buf: s.blockData(c.Block), off: c.Off, time: c.Time, v1: s.v1}
		if rec, ok := r.next(); ok {
			return rec.time, true
		}
		if r.err != nil {
			s.fail(c.Block, r.err)
			return 0, false
		}
		c.Block++
		c.Off = 0
	}
	return 0, false
}

// IndexBytes returns the approximate heap footprint of the store's
// change data: resident block buffers (for a disk store, the block
// directory plus whatever the LRU cache currently holds) plus the
// per-signal sparse index, excluding materialized timelines. Reported
// by tools and benchmarks.
func (s *Store) IndexBytes() int {
	total := 0
	if s.src == nil {
		for i := range s.blocks {
			total += cap(s.blocks[i].buf)
		}
	} else {
		total += len(s.blocks) * 32 // directory entries
		total += s.cache.bytes()
	}
	for _, ts := range s.list {
		total += cap(ts.blkIdx)*4 + ts.last.byteSize()
	}
	return total
}
