package symtab

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sync"
)

// Cache is a shared, read-only symbol-table cache. A hub serving N
// replay runtimes of the same design would otherwise parse and index
// the same symbol table N times and hold N copies resident; the cache
// loads identical content once and hands every runtime the same
// *Table (safe: a loaded table is immutable — the embedded store
// builds its indexes at load and every query afterwards is a pure
// read).
//
// Entries are content-keyed (SHA-256 of the file bytes), so two paths
// holding the same table — or the same path re-written identically —
// share one entry, and a file that changed on disk gets a fresh one.
// Entries are refcounted: Acquire returns a release closure, and an
// entry stays resident while any runtime holds it. Loading is
// single-flight: the first acquirer of a content key parses it outside
// the lock while later acquirers of the same key wait for that one
// parse instead of starting their own. Released entries
// are not discarded immediately — they park on an idle LRU whose
// total serialized size is budgeted, so launch/evict churn over a
// small set of designs keeps hitting memory while a large history
// cannot grow without bound.
type Cache struct {
	mu sync.Mutex
	// entries holds every resident table by content key, referenced or
	// idle.
	entries map[string]*cacheEntry
	// idle is the LRU order of zero-ref entries (front = oldest);
	// idleBytes sums their sizes against budget.
	idle      []*cacheEntry
	idleBytes int
	budget    int

	hits, misses uint64

	// load parses one table (Load; replaceable so tests can hold a load
	// in flight).
	load func(io.Reader) (*Table, error)
}

type cacheEntry struct {
	key  string
	size int // serialized byte size, the LRU budget unit
	refs int
	// done is closed when the entry's load finishes; table and err are
	// written before it closes and read only after.
	done  chan struct{}
	table *Table
	err   error
}

// DefaultCacheBudget bounds idle (released, unreferenced) cached
// tables; referenced tables are never evicted regardless.
const DefaultCacheBudget = 64 << 20

// NewCache creates a shared symbol-table cache whose idle entries are
// bounded to budget bytes of serialized table content (<= 0 selects
// DefaultCacheBudget).
func NewCache(budget int) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBudget
	}
	return &Cache{entries: map[string]*cacheEntry{}, budget: budget, load: Load}
}

// Acquire loads the symbol table at path through the cache. The
// returned release closure must be called exactly once when the
// runtime holding the table is done with it; the table itself must be
// treated as read-only (it may be shared with other runtimes). hit
// reports whether the table came without a parse — identical content
// had been loaded, or was being loaded, by an earlier or concurrent
// acquisition. A failed load is not cached: every acquirer waiting on
// it gets the error, and the next acquisition parses again.
func (c *Cache) Acquire(path string) (table *Table, release func(), hit bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("symtab: cache read %s: %w", path, err)
	}
	sum := sha256.Sum256(raw)
	key := string(sum[:])

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.refs == 0 {
			c.removeIdleLocked(e)
		}
		e.refs++
		c.mu.Unlock()
		// The entry may still be loading: share that one parse.
		<-e.done
		if e.err != nil {
			return nil, nil, false, e.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return e.table, c.releaseFunc(e), true, nil
	}
	c.misses++
	e := &cacheEntry{key: key, size: len(raw), refs: 1, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	// Parse outside the lock: a slow load (multi-MB table) must not
	// stall unrelated hits.
	e.table, e.err = c.load(bytes.NewReader(raw))
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.done)
	if e.err != nil {
		return nil, nil, false, e.err
	}
	return e.table, c.releaseFunc(e), false, nil
}

// releaseFunc builds the once-only release closure for one acquisition
// of e.
func (c *Cache) releaseFunc(e *cacheEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			e.refs--
			if e.refs == 0 {
				c.pushIdleLocked(e)
				c.evictLocked()
			}
			c.mu.Unlock()
		})
	}
}

// pushIdleLocked parks a zero-ref entry at the LRU tail (newest).
func (c *Cache) pushIdleLocked(e *cacheEntry) {
	c.idle = append(c.idle, e)
	c.idleBytes += e.size
}

// removeIdleLocked takes an entry off the idle list (it is being
// re-referenced).
func (c *Cache) removeIdleLocked(e *cacheEntry) {
	for i, o := range c.idle {
		if o == e {
			c.idle = append(c.idle[:i], c.idle[i+1:]...)
			c.idleBytes -= e.size
			return
		}
	}
}

// evictLocked discards oldest idle entries until the idle set fits the
// budget. A single entry larger than the whole budget is evicted the
// moment it goes idle.
func (c *Cache) evictLocked() {
	for c.idleBytes > c.budget && len(c.idle) > 0 {
		e := c.idle[0]
		c.idle = c.idle[1:]
		c.idleBytes -= e.size
		delete(c.entries, e.key)
	}
}

// CacheStats is a snapshot of the cache's accounting.
type CacheStats struct {
	// Hits counts acquisitions served without a parse (by a resident
	// table, or by waiting on a concurrent first load); Misses counts
	// parses. Hits+Misses is the number of acquisitions that read their
	// file, less those that waited on a load that failed.
	Hits, Misses uint64
	// Live is the number of resident tables currently referenced by at
	// least one runtime; Idle the number parked on the LRU, whose
	// serialized sizes sum to IdleBytes.
	Live, Idle int
	IdleBytes  int
}

// Stats returns a snapshot of hit/miss and residency accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Live:      len(c.entries) - len(c.idle),
		Idle:      len(c.idle),
		IdleBytes: c.idleBytes,
	}
}
