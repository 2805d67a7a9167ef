package vcd

// This file is the persistent form of the block store: a versioned
// on-disk format that lets a pre-indexed trace open in O(header) —
// no VCD text scan, no block decode — and be shared read-only by many
// replay engines at once. The layout (see DESIGN.md "Trace index &
// checkpointing"):
//
//	header      fixed 64 bytes: magic, version, counts, section table offset
//	blocks      concatenated block record streams (the ParseStore encoding)
//	sections    located by a section table of (id, offset, length) entries:
//	  blockDir  per block: uvarint(window delta), uvarint(length), uvarint(crc32)
//	  signals   per signal: name ref, width, change count, sparse block index
//	  strings   deduplicated string table (signal paths, scope names)
//	  hier      instance tree in pre-order, names by string-table ref
//
// IndexFile is the one writer. It writes each block right after the
// previous one while the VCD text is still being scanned, then the
// metadata sections and the section table, and the header last.
//
// OpenStore reads the header and metadata sections only. Block record
// streams stay on disk and load on demand through Store.blockData into
// a byte-bounded LRU; each load is CRC-checked and stream-validated
// before it is published, so a corrupt file poisons the store (Err)
// instead of fabricating change records.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/rtl"
)

const (
	// StoreVersion is the on-disk format version written and read by
	// this package. Version 2 added the four-state value planes: block
	// records carry an optional unknown-bit word stream and wide
	// (>64-bit) value words, signal rows carry packed last-value
	// planes, and the header records x/z statistics. OpenStore refuses
	// every other version with an error that says to re-index the trace
	// rather than misdecoding it.
	StoreVersion = 2

	headerSize  = 64
	maxSections = 64
	// maxHierDepth bounds scope nesting when decoding a hostile
	// hierarchy section (real designs nest a few dozen deep).
	maxHierDepth = 1024
	// maxSignalWidth bounds declared widths from hostile files.
	maxSignalWidth = 1 << 20

	secBlockDir = 1
	secSignals  = 2
	secStrings  = 3
	secHier     = 4
	secBlocks   = 5

	// DefaultBlockCacheBytes bounds lazily loaded block bytes resident
	// for a disk-opened store.
	DefaultBlockCacheBytes = 64 << 20
	// DefaultTimelineBudget bounds resident materialized timelines
	// (see Store.evictTimelines).
	DefaultTimelineBudget = 256 << 20
)

// storeMagic identifies a store file; the first 8 bytes of the format.
var storeMagic = [8]byte{'h', 'g', 'd', 'b', 's', 't', 'o', 'r'}

// ErrNotStore reports that the input does not start with the store
// magic — it is some other file (for example raw VCD text). Callers
// use it to fall back to ParseStore.
var ErrNotStore = errors.New("vcd: not a store file")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// dirEntry is one block directory row while writing.
type dirEntry struct {
	win    uint64
	length uint32
	crc    uint32
}

// --- encoding helpers ---

// stringTable deduplicates strings at write time; refs are indices
// into the encoded table.
type stringTable struct {
	idx  map[string]uint64
	list []string
}

func newStringTable() *stringTable {
	return &stringTable{idx: map[string]uint64{}}
}

func (t *stringTable) ref(s string) uint64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := uint64(len(t.list))
	t.idx[s] = i
	t.list = append(t.list, s)
	return i
}

func (t *stringTable) encode() []byte {
	b := binary.AppendUvarint(nil, uint64(len(t.list)))
	for _, s := range t.list {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

func encodeBlockDir(dir []dirEntry) []byte {
	var b []byte
	prev := uint64(0)
	for i, e := range dir {
		d := e.win
		if i > 0 {
			d = e.win - prev
		}
		prev = e.win
		b = binary.AppendUvarint(b, d)
		b = binary.AppendUvarint(b, uint64(e.length))
		b = binary.AppendUvarint(b, uint64(e.crc))
	}
	return b
}

func encodeSignals(list []*StoreSignal, strs *stringTable) []byte {
	var b []byte
	for _, ts := range list {
		b = binary.AppendUvarint(b, strs.ref(ts.Name))
		b = binary.AppendUvarint(b, uint64(ts.Width))
		b = binary.AppendUvarint(b, uint64(ts.n))
		b = binary.AppendUvarint(b, uint64(len(ts.blkIdx)))
		prev := uint32(0)
		for i, bi := range ts.blkIdx {
			d := bi
			if i > 0 {
				d = bi - prev
			}
			prev = bi
			b = binary.AppendUvarint(b, uint64(d))
		}
		// Last-value planes, one row of nw words per indexed block: an
		// x-plane presence flag, then the value words, then (only when
		// present) the x words. A fully two-state signal pays one flag
		// byte for the four-state support.
		if len(ts.blkIdx) > 0 {
			xflag := uint64(0)
			if ts.last.x != nil {
				xflag = 1
			}
			b = binary.AppendUvarint(b, xflag)
			for _, v := range ts.last.v {
				b = binary.AppendUvarint(b, v)
			}
			if xflag != 0 {
				for _, x := range ts.last.x {
					b = binary.AppendUvarint(b, x)
				}
			}
		}
	}
	return b
}

func countHierNodes(n *rtl.InstanceNode) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countHierNodes(c)
	}
	return total
}

func encodeHierNode(b []byte, n *rtl.InstanceNode, strs *stringTable) []byte {
	b = binary.AppendUvarint(b, strs.ref(n.Name))
	b = binary.AppendUvarint(b, uint64(len(n.Signals)))
	for _, s := range n.Signals {
		b = binary.AppendUvarint(b, strs.ref(s))
	}
	b = binary.AppendUvarint(b, uint64(len(n.Children)))
	for _, c := range n.Children {
		b = encodeHierNode(b, c, strs)
	}
	return b
}

func encodeHier(root *rtl.InstanceNode, strs *stringTable) []byte {
	b := binary.AppendUvarint(nil, uint64(countHierNodes(root)))
	if root != nil {
		b = encodeHierNode(b, root, strs)
	}
	return b
}

type sectionEntry struct {
	id  uint32
	off uint64
	len uint64
}

func encodeHeader(sectionCount int, sectionTableOff uint64, st *Store, numBlocks int) []byte {
	h := make([]byte, headerSize)
	copy(h[0:8], storeMagic[:])
	binary.LittleEndian.PutUint32(h[8:12], StoreVersion)
	binary.LittleEndian.PutUint32(h[12:16], uint32(sectionCount))
	binary.LittleEndian.PutUint64(h[16:24], sectionTableOff)
	binary.LittleEndian.PutUint64(h[24:32], st.blockSize)
	binary.LittleEndian.PutUint64(h[32:40], st.MaxTime)
	binary.LittleEndian.PutUint32(h[40:44], uint32(len(st.list)))
	binary.LittleEndian.PutUint32(h[44:48], uint32(numBlocks))
	binary.LittleEndian.PutUint64(h[48:56], uint64(st.changes))
	binary.LittleEndian.PutUint32(h[56:60], uint32(st.Stats.XZChanges))
	binary.LittleEndian.PutUint32(h[60:64], uint32(st.Stats.MaxWidth))
	return h
}

func encodeSectionTable(secs []sectionEntry) []byte {
	b := make([]byte, 0, len(secs)*20)
	var tmp [20]byte
	for _, s := range secs {
		binary.LittleEndian.PutUint32(tmp[0:4], s.id)
		binary.LittleEndian.PutUint64(tmp[4:12], s.off)
		binary.LittleEndian.PutUint64(tmp[12:20], s.len)
		b = append(b, tmp[:]...)
	}
	return b
}

// IndexStats summarizes one IndexFile run.
type IndexStats struct {
	Signals int
	Blocks  int
	Changes int
	MaxTime uint64
	// Bytes is the size of the written store file.
	Bytes int64
	Parse ParseStats
}

// IndexFile parses the VCD trace at vcdPath and writes its block store
// to storePath in one sequential pass (indexStream), so peak memory
// stays at the sparse per-signal index, not the whole store. The store
// is written to a temporary file beside storePath and renamed over it
// only once complete: a failed index leaves any existing file as it
// was. A storePath that names the input trace itself is refused.
func IndexFile(vcdPath, storePath string, opts StoreOptions) (*IndexStats, error) {
	in, err := os.Open(vcdPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	inInfo, err := in.Stat()
	if err != nil {
		return nil, err
	}
	if outInfo, err := os.Stat(storePath); err == nil && os.SameFile(inInfo, outInfo) {
		return nil, fmt.Errorf("vcd: store path %s is the input trace", storePath)
	}
	out, err := os.CreateTemp(filepath.Dir(storePath), filepath.Base(storePath)+".*.tmp")
	if err != nil {
		return nil, err
	}
	// No Sync before the rename: the store is derived data, and a torn
	// file fails OpenStore's checks and is rebuilt by indexing again.
	stats, err := indexStream(in, out, opts)
	if err == nil {
		err = out.Chmod(0o644)
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(out.Name(), storePath)
	}
	if err != nil {
		os.Remove(out.Name())
		return nil, err
	}
	return stats, nil
}

// indexStream scans VCD text from rd and writes its store to out. Each
// block the ingest completes is checksummed and written at the next
// offset after the header; once the scan ends, the metadata sections
// and the section table follow the block data, and the header is
// written last.
func indexStream(rd io.Reader, out io.WriterAt, opts StoreOptions) (*IndexStats, error) {
	bs := opts.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	var (
		dir      []dirEntry
		off      = uint64(headerSize)
		writeErr error
	)
	g := newStoreIngest(bs, func(blk storeBlock) {
		if writeErr == nil {
			_, writeErr = out.WriteAt(blk.buf, int64(off))
		}
		dir = append(dir, dirEntry{win: blk.win, length: uint32(len(blk.buf)), crc: crc32.Checksum(blk.buf, crcTable)})
		off += uint64(len(blk.buf))
	})
	if err := scanVCD(rd, g); err != nil {
		return nil, err
	}
	g.finish()
	if writeErr != nil {
		return nil, writeErr
	}
	st := g.st
	strs := newStringTable()
	sigB := encodeSignals(st.list, strs)
	hierB := encodeHier(st.Hierarchy, strs)
	secs := []sectionEntry{{id: secBlocks, off: headerSize, len: off - headerSize}}
	for _, sec := range []struct {
		id uint32
		b  []byte
	}{{secBlockDir, encodeBlockDir(dir)}, {secSignals, sigB}, {secStrings, strs.encode()}, {secHier, hierB}} {
		if _, err := out.WriteAt(sec.b, int64(off)); err != nil {
			return nil, err
		}
		secs = append(secs, sectionEntry{id: sec.id, off: off, len: uint64(len(sec.b))})
		off += uint64(len(sec.b))
	}
	tableB := encodeSectionTable(secs)
	if _, err := out.WriteAt(tableB, int64(off)); err != nil {
		return nil, err
	}
	if _, err := out.WriteAt(encodeHeader(len(secs), off, st, len(dir)), 0); err != nil {
		return nil, err
	}
	return &IndexStats{
		Signals: len(st.list),
		Blocks:  len(dir),
		Changes: st.changes,
		MaxTime: st.MaxTime,
		Bytes:   int64(off) + int64(len(tableB)),
		Parse:   st.Stats,
	}, nil
}

// --- opening ---

// OpenOptions configures OpenStore.
type OpenOptions struct {
	// BlockCacheBytes bounds resident lazily loaded block bytes (LRU;
	// 0 = DefaultBlockCacheBytes).
	BlockCacheBytes int
}

// byteReader decodes a metadata section with full bounds checking;
// every read failure is sticky.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("vcd: store: bad varint at section byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) str(n uint64) string {
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("vcd: store: string of %d bytes overruns section", n)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

// OpenStore opens a store written by IndexFile. Only
// the header and metadata sections are read — O(header + index), never
// the block data, which loads lazily through r with CRC verification.
// The format is treated as hostile input: every count is bounded
// against size before allocation and every reference is validated.
func OpenStore(r io.ReaderAt, size int64, opts OpenOptions) (*Store, error) {
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than the header", ErrNotStore, size)
	}
	h := make([]byte, headerSize)
	if _, err := r.ReadAt(h, 0); err != nil {
		return nil, err
	}
	if [8]byte(h[0:8]) != storeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrNotStore)
	}
	if version := binary.LittleEndian.Uint32(h[8:12]); version > StoreVersion {
		return nil, fmt.Errorf("vcd: store version %d was created by a newer hgdb; this build reads version %d — re-index the trace or upgrade", version, StoreVersion)
	} else if version != StoreVersion {
		return nil, fmt.Errorf("vcd: store version %d is no longer supported (this build reads version %d) — re-index the trace", version, StoreVersion)
	}
	sectionCount := binary.LittleEndian.Uint32(h[12:16])
	tableOff := binary.LittleEndian.Uint64(h[16:24])
	blockSize := binary.LittleEndian.Uint64(h[24:32])
	maxTime := binary.LittleEndian.Uint64(h[32:40])
	numSignals := binary.LittleEndian.Uint32(h[40:44])
	numBlocks := binary.LittleEndian.Uint32(h[44:48])
	changes := binary.LittleEndian.Uint64(h[48:56])
	xz := binary.LittleEndian.Uint32(h[56:60])
	maxWidth := binary.LittleEndian.Uint32(h[60:64])
	if blockSize == 0 {
		return nil, fmt.Errorf("vcd: store: zero block size")
	}
	if sectionCount == 0 || sectionCount > maxSections {
		return nil, fmt.Errorf("vcd: store: implausible section count %d", sectionCount)
	}
	if tableOff > uint64(size) || uint64(sectionCount)*20 > uint64(size)-tableOff {
		return nil, fmt.Errorf("vcd: store: section table out of range")
	}
	tableB := make([]byte, sectionCount*20)
	if _, err := r.ReadAt(tableB, int64(tableOff)); err != nil {
		return nil, fmt.Errorf("vcd: store: read section table: %w", err)
	}
	sections := map[uint32]sectionEntry{}
	for i := uint32(0); i < sectionCount; i++ {
		e := sectionEntry{
			id:  binary.LittleEndian.Uint32(tableB[i*20:]),
			off: binary.LittleEndian.Uint64(tableB[i*20+4:]),
			len: binary.LittleEndian.Uint64(tableB[i*20+12:]),
		}
		if e.off > uint64(size) || e.len > uint64(size)-e.off {
			return nil, fmt.Errorf("vcd: store: section %d out of range", e.id)
		}
		sections[e.id] = e
	}
	need := func(id uint32) (sectionEntry, []byte, error) {
		e, ok := sections[id]
		if !ok {
			return e, nil, fmt.Errorf("vcd: store: missing section %d", id)
		}
		b := make([]byte, e.len)
		if _, err := r.ReadAt(b, int64(e.off)); err != nil {
			return e, nil, fmt.Errorf("vcd: store: read section %d: %w", id, err)
		}
		return e, b, nil
	}
	blocksSec, ok := sections[secBlocks]
	if !ok {
		return nil, fmt.Errorf("vcd: store: missing section %d", secBlocks)
	}
	// Every record is at least 3 bytes, every directory entry and
	// signal row at least 3 and 4: reject counts the data cannot hold
	// before allocating for them.
	dirSec, dirB, err := need(secBlockDir)
	if err != nil {
		return nil, err
	}
	if uint64(numBlocks)*3 > dirSec.len {
		return nil, fmt.Errorf("vcd: store: %d blocks cannot fit a %d-byte directory", numBlocks, dirSec.len)
	}
	sigSec, sigB, err := need(secSignals)
	if err != nil {
		return nil, err
	}
	if uint64(numSignals)*4 > sigSec.len {
		return nil, fmt.Errorf("vcd: store: %d signals cannot fit a %d-byte signal section", numSignals, sigSec.len)
	}
	if changes*3 > blocksSec.len {
		return nil, fmt.Errorf("vcd: store: %d changes cannot fit %d block-data bytes", changes, blocksSec.len)
	}
	_, strB, err := need(secStrings)
	if err != nil {
		return nil, err
	}
	_, hierB, err := need(secHier)
	if err != nil {
		return nil, err
	}

	// Strings.
	sr := &byteReader{b: strB}
	nstr := sr.uvarint()
	if nstr > uint64(sr.remaining()) {
		return nil, fmt.Errorf("vcd: store: %d strings cannot fit the string table", nstr)
	}
	strs := make([]string, 0, nstr)
	for i := uint64(0); i < nstr; i++ {
		strs = append(strs, sr.str(sr.uvarint()))
	}
	if sr.err != nil {
		return nil, sr.err
	}

	cacheBytes := opts.BlockCacheBytes
	if cacheBytes <= 0 {
		cacheBytes = DefaultBlockCacheBytes
	}
	st := &Store{
		MaxTime:   maxTime,
		Stats:     ParseStats{XZChanges: int(xz), MaxWidth: int(maxWidth)},
		blockSize: blockSize,
		sigs:      make(map[string]*StoreSignal, numSignals),
		changes:   int(changes),
		src:       r,
		cache:     newBlockCache(cacheBytes),
	}

	// Block directory: strictly increasing windows, cumulative offsets
	// bounded by the block-data section.
	dr := &byteReader{b: dirB}
	st.blocks = make([]storeBlock, 0, numBlocks)
	maxWin := maxTime / blockSize
	var win, dataOff uint64
	for i := uint32(0); i < numBlocks; i++ {
		d := dr.uvarint()
		length := dr.uvarint()
		crc := dr.uvarint()
		if dr.err != nil {
			return nil, dr.err
		}
		if i == 0 {
			win = d
		} else {
			if d == 0 {
				return nil, fmt.Errorf("vcd: store: duplicate block window at slot %d", i)
			}
			next := win + d
			if next < win {
				return nil, fmt.Errorf("vcd: store: block window overflow at slot %d", i)
			}
			win = next
		}
		if win > maxWin {
			return nil, fmt.Errorf("vcd: store: block window %d past max time %d", win, maxTime)
		}
		if length > uint64(blocksSec.len) || dataOff > blocksSec.len-length {
			return nil, fmt.Errorf("vcd: store: block %d data out of range", i)
		}
		if crc > uint64(^uint32(0)) {
			return nil, fmt.Errorf("vcd: store: block %d crc out of range", i)
		}
		st.blocks = append(st.blocks, storeBlock{
			win:    win,
			off:    int64(blocksSec.off + dataOff),
			length: uint32(length),
			crc:    uint32(crc),
		})
		dataOff += length
	}

	// Signals.
	gr := &byteReader{b: sigB}
	st.list = make([]*StoreSignal, 0, numSignals)
	for i := uint32(0); i < numSignals; i++ {
		nameRef := gr.uvarint()
		width := gr.uvarint()
		n := gr.uvarint()
		k := gr.uvarint()
		if gr.err != nil {
			return nil, gr.err
		}
		if nameRef >= uint64(len(strs)) {
			return nil, fmt.Errorf("vcd: store: signal %d: name ref %d out of range", i, nameRef)
		}
		if width > maxSignalWidth {
			return nil, fmt.Errorf("vcd: store: signal %d: implausible width %d", i, width)
		}
		if n > changes {
			return nil, fmt.Errorf("vcd: store: signal %d: %d changes exceeds the store total %d", i, n, changes)
		}
		if k > uint64(numBlocks) || k > n {
			return nil, fmt.Errorf("vcd: store: signal %d: sparse index of %d blocks is implausible", i, k)
		}
		ts := &StoreSignal{
			Name:  strs[nameRef],
			Width: int(width),
			store: st,
			index: int(i),
			n:     int(n),
		}
		nw := ts.nw()
		ts.last.nw = nw
		if k > 0 {
			ts.blkIdx = make([]uint32, 0, k)
			var prev uint32
			for j := uint64(0); j < k; j++ {
				d := gr.uvarint()
				var bi uint64
				if j == 0 {
					bi = d
				} else {
					if d == 0 {
						return nil, fmt.Errorf("vcd: store: signal %d: sparse index not increasing", i)
					}
					bi = uint64(prev) + d
				}
				if bi >= uint64(numBlocks) {
					return nil, fmt.Errorf("vcd: store: signal %d: block slot %d out of range", i, bi)
				}
				prev = uint32(bi)
				ts.blkIdx = append(ts.blkIdx, uint32(bi))
			}
			// Row: x-plane flag, k*nw value words, then (when the flag is
			// set) k*nw x words. Every word is at least one byte, so the
			// row count is bounded against the section before allocation.
			xflag := gr.uvarint()
			if gr.err == nil && xflag > 1 {
				return nil, fmt.Errorf("vcd: store: signal %d: bad x-plane flag %d", i, xflag)
			}
			words := k * uint64(nw)
			if xflag != 0 {
				words *= 2
			}
			if words > uint64(gr.remaining())+1 {
				return nil, fmt.Errorf("vcd: store: signal %d: %d last-value words cannot fit the section", i, words)
			}
			ts.last.v = make([]uint64, 0, k*uint64(nw))
			for j := uint64(0); j < k*uint64(nw); j++ {
				ts.last.v = append(ts.last.v, gr.uvarint())
			}
			if xflag != 0 {
				ts.last.x = make([]uint64, 0, k*uint64(nw))
				for j := uint64(0); j < k*uint64(nw); j++ {
					ts.last.x = append(ts.last.x, gr.uvarint())
				}
			}
			if gr.err != nil {
				return nil, gr.err
			}
		}
		st.list = append(st.list, ts)
		st.sigs[ts.Name] = ts
	}
	st.finalizeLayout()

	// Hierarchy.
	hr := &byteReader{b: hierB}
	nNodes := hr.uvarint()
	if nNodes > uint64(hr.remaining())+1 {
		return nil, fmt.Errorf("vcd: store: %d hierarchy nodes cannot fit the section", nNodes)
	}
	if nNodes > 0 {
		budget := int(nNodes)
		root, err := decodeHierNode(hr, strs, "", 0, &budget)
		if err != nil {
			return nil, err
		}
		st.Hierarchy = root
	}
	if hr.err != nil {
		return nil, hr.err
	}
	return st, nil
}

// decodeHierNode rebuilds one instance subtree; paths derive from the
// scope nesting exactly as the text parser's hierBuilder builds them.
func decodeHierNode(r *byteReader, strs []string, parentPath string, depth int, budget *int) (*rtl.InstanceNode, error) {
	if depth > maxHierDepth {
		return nil, fmt.Errorf("vcd: store: hierarchy deeper than %d", maxHierDepth)
	}
	if *budget <= 0 {
		return nil, fmt.Errorf("vcd: store: hierarchy node count exceeds declared total")
	}
	*budget--
	nameRef := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nameRef >= uint64(len(strs)) {
		return nil, fmt.Errorf("vcd: store: hierarchy name ref %d out of range", nameRef)
	}
	node := &rtl.InstanceNode{Name: strs[nameRef]}
	if parentPath == "" {
		node.Path = node.Name
	} else {
		node.Path = parentPath + "." + node.Name
	}
	nSigs := r.uvarint()
	if nSigs > uint64(r.remaining())+1 {
		return nil, fmt.Errorf("vcd: store: hierarchy signal count overruns section")
	}
	for i := uint64(0); i < nSigs; i++ {
		ref := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if ref >= uint64(len(strs)) {
			return nil, fmt.Errorf("vcd: store: hierarchy signal ref %d out of range", ref)
		}
		node.Signals = append(node.Signals, strs[ref])
	}
	nChildren := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nChildren > uint64(*budget) {
		return nil, fmt.Errorf("vcd: store: hierarchy child count exceeds declared total")
	}
	for i := uint64(0); i < nChildren; i++ {
		c, err := decodeHierNode(r, strs, node.Path, depth+1, budget)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, c)
	}
	return node, nil
}

// OpenStoreFile opens a store file from disk; the returned store owns
// the file handle (release with Close). If the file is not a store
// (for example raw VCD text), the error wraps ErrNotStore.
func OpenStoreFile(path string, opts OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := OpenStore(f, fi.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	st.closer = f
	return st, nil
}

// --- lazy block loads ---

// loadBlock fetches a disk store's block record stream: LRU cache hit,
// or a CRC-checked, stream-validated read from the backing file.
func (s *Store) loadBlock(slot int) []byte {
	if buf, ok := s.cache.get(slot); ok {
		return buf
	}
	b := &s.blocks[slot]
	if b.length == 0 {
		return nil
	}
	buf := make([]byte, b.length)
	if _, err := s.src.ReadAt(buf, b.off); err != nil {
		s.setErr(fmt.Errorf("vcd: block %d (window %d): read: %w", slot, b.win, err))
		return nil
	}
	if got := crc32.Checksum(buf, crcTable); got != b.crc {
		s.setErr(fmt.Errorf("vcd: block %d (window %d): crc mismatch (%08x, want %08x)", slot, b.win, got, b.crc))
		return nil
	}
	if err := s.validateBlockStream(slot, buf); err != nil {
		s.setErr(err)
		return nil
	}
	s.cache.put(slot, buf)
	return buf
}

// validateBlockStream fully decodes a freshly loaded block once,
// before publication: varints must be well-formed, signal indices in
// range, and record times inside the block's window. After this check
// every later walk over the cached buffer is on trusted bytes.
func (s *Store) validateBlockStream(slot int, buf []byte) error {
	b := &s.blocks[slot]
	start := b.win * s.blockSize
	end := start + s.blockSize - 1
	if end < start {
		end = ^uint64(0)
	}
	r := blockReader{buf: buf, time: start}
	for {
		rec, ok := r.next()
		if !ok {
			break
		}
		r.commit(rec)
		if rec.sig >= len(s.list) {
			return fmt.Errorf("vcd: block %d (window %d): record names signal %d of %d", slot, b.win, rec.sig, len(s.list))
		}
		if rec.time > end {
			return fmt.Errorf("vcd: block %d (window %d): record time %d outside window", slot, b.win, rec.time)
		}
		// A record's plane word count is fixed by the signal's declared
		// width: wide exactly when the signal needs more than one word,
		// and then exactly nw-1 extra words.
		if want := s.list[rec.sig].nw() - 1; len(rec.vh) != want {
			return fmt.Errorf("vcd: block %d (window %d): record for %d-bit signal %d carries %d extra value words (want %d)",
				slot, b.win, s.list[rec.sig].Width, rec.sig, len(rec.vh), want)
		}
	}
	if r.err != nil {
		return fmt.Errorf("vcd: block %d (window %d): %w", slot, b.win, r.err)
	}
	return nil
}

// blockCache is the byte-bounded LRU over lazily loaded block record
// streams. Returned buffers are immutable and stay valid after
// eviction (readers hold their own reference); the bound is on what
// the cache itself keeps resident.
type blockCache struct {
	mu   sync.Mutex
	max  int
	size int
	ent  map[int]*cacheEntry
	head *cacheEntry // most recent
	tail *cacheEntry // least recent
}

type cacheEntry struct {
	slot       int
	buf        []byte
	prev, next *cacheEntry
}

func newBlockCache(maxBytes int) *blockCache {
	return &blockCache{max: maxBytes, ent: map[int]*cacheEntry{}}
}

func (c *blockCache) bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

func (c *blockCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *blockCache) push(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *blockCache) get(slot int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.ent[slot]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.push(e)
	return e.buf, true
}

func (c *blockCache) put(slot int, buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ent[slot]; ok {
		// Raced with another loader; keep the resident copy.
		c.unlink(e)
		c.push(e)
		return
	}
	e := &cacheEntry{slot: slot, buf: buf}
	c.ent[slot] = e
	c.push(e)
	c.size += len(buf)
	for c.size > c.max && c.tail != nil && c.tail != e {
		old := c.tail
		c.unlink(old)
		delete(c.ent, old.slot)
		c.size -= len(old.buf)
	}
}
