package symtab

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeTable serializes the dual-core fixture table to a file and
// returns its path and byte size.
func writeTable(t *testing.T, dir, name string) (string, int) {
	t.Helper()
	comp, _ := buildDualCore(t)
	table, err := Build(comp)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Len()
}

func TestCacheSharesByContent(t *testing.T) {
	dir := t.TempDir()
	pathA, _ := writeTable(t, dir, "a.db")
	// Distinct path, identical content: a byte copy, because the store's
	// serialization is not deterministic across independent builds.
	raw, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(dir, "b.db")
	if err := os.WriteFile(pathB, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewCache(0)
	ta, relA, hitA, err := c.Acquire(pathA)
	if err != nil {
		t.Fatalf("acquire a: %v", err)
	}
	tb, relB, hitB, err := c.Acquire(pathB)
	if err != nil {
		t.Fatalf("acquire b: %v", err)
	}
	if ta != tb {
		t.Fatal("identical content did not share one table")
	}
	if hitA || !hitB {
		t.Fatalf("hit flags = %v, %v (want first miss, second hit)", hitA, hitB)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Live != 1 {
		t.Fatalf("stats after shared acquire = %+v", st)
	}
	if len(ta.AllBreakpoints()) == 0 {
		t.Fatal("shared table unusable")
	}

	// Releasing one holder keeps the table live; releasing the last
	// parks it idle, and a re-acquire pulls it back without a reload.
	relA()
	if st := c.Stats(); st.Live != 1 || st.Idle != 0 {
		t.Fatalf("stats after partial release = %+v", st)
	}
	relB()
	if st := c.Stats(); st.Live != 0 || st.Idle != 1 {
		t.Fatalf("stats after full release = %+v", st)
	}
	tc, relC, hitC, err := c.Acquire(pathA)
	if err != nil {
		t.Fatal(err)
	}
	defer relC()
	if tc != ta {
		t.Fatal("idle table was reloaded instead of revived")
	}
	if !hitC {
		t.Fatal("revival not reported as a hit")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 || st.Live != 1 || st.Idle != 0 {
		t.Fatalf("stats after revival = %+v", st)
	}
}

func TestCacheDistinctContent(t *testing.T) {
	dir := t.TempDir()
	path, raw := writeTable(t, dir, "a.db")
	// Perturb a copy so its content key differs.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = raw
	other := filepath.Join(dir, "b.db")
	if err := os.WriteFile(other, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewCache(0)
	ta, relA, _, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	defer relA()
	tb, relB, hitB, errB := c.Acquire(other)
	if errB == nil {
		defer relB()
		if ta == tb {
			t.Fatal("different content shared a table")
		}
	}
	if hitB {
		t.Fatal("perturbed content reported as hit")
	}
	// Whether the perturbed file parses or not, it must not have been
	// served from cache.
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("perturbed file counted as hit: %+v", st)
	}
}

func TestCacheBudgetEvictsIdle(t *testing.T) {
	dir := t.TempDir()
	path, size := writeTable(t, dir, "a.db")

	// Budget below one table: the entry is evicted the moment it goes
	// idle, so the next acquire is a miss.
	c := NewCache(size / 2)
	ta, rel, _, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if st := c.Stats(); st.Live != 0 || st.Idle != 0 || st.IdleBytes != 0 {
		t.Fatalf("over-budget idle entry survived: %+v", st)
	}
	tb, rel2, hit2, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if ta == tb {
		t.Fatal("evicted table returned again")
	}
	if hit2 {
		t.Fatal("acquire after eviction reported as hit")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("re-acquire after eviction not a miss: %+v", st)
	}
}

func TestCacheReleaseIdempotent(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTable(t, dir, "a.db")
	c := NewCache(0)
	_, relA, _, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	_, relB, _, err := c.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	relA()
	relA() // double release of the same acquisition must not steal B's ref
	if st := c.Stats(); st.Live != 1 || st.Idle != 0 {
		t.Fatalf("double release corrupted refcount: %+v", st)
	}
	relB()
	if st := c.Stats(); st.Live != 0 || st.Idle != 1 {
		t.Fatalf("final release: %+v", st)
	}
}

func TestCacheConcurrentAcquire(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTable(t, dir, "a.db")
	c := NewCache(0)

	const n = 16
	tables := make([]*Table, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tbl, rel, _, err := c.Acquire(path)
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			tables[i] = tbl
			// Exercise the shared read path under the race detector.
			_ = tbl.AllBreakpoints()
			_ = tbl.Files()
			rel()
		}(i)
	}
	wg.Wait()
	for i := range tables {
		if tables[i] == nil || tables[i] != tables[0] {
			t.Fatalf("acquisition %d got table %p, acquisition 0 got %p: not one shared table",
				i, tables[i], tables[0])
		}
	}
	// Single-flight loading: concurrent first loads of one content key
	// parse it exactly once.
	if st := c.Stats(); st.Misses != 1 || st.Hits != n-1 || st.Live+st.Idle != 1 {
		t.Fatalf("stats = %+v, want 1 parse, %d hits, 1 resident table", st, n-1)
	}
}

// TestCacheFailedLoad: acquirers waiting on an in-flight load that
// fails all get its error, the failure is not cached, and the next
// acquisition parses again.
func TestCacheFailedLoad(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTable(t, dir, "a.db")
	c := NewCache(0)
	gate := make(chan struct{})
	var loads atomic.Int32
	c.load = func(io.Reader) (*Table, error) {
		loads.Add(1)
		<-gate
		return nil, errors.New("corrupt table")
	}

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, _, err := c.Acquire(path)
			errs <- err
		}()
	}
	// Hold the load in flight until every acquirer has joined it.
	for joined := 0; joined < n; {
		time.Sleep(time.Millisecond)
		c.mu.Lock()
		for _, e := range c.entries {
			joined = e.refs
		}
		c.mu.Unlock()
	}
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil || err.Error() != "corrupt table" {
			t.Fatalf("acquirer %d: err = %v, want the load's error", i, err)
		}
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("%d loads for one content key, want 1", got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Live+st.Idle != 0 {
		t.Fatalf("stats after failed load = %+v, want 1 miss, no hits, nothing resident", st)
	}

	c.load = Load
	tbl, rel, hit, err := c.Acquire(path)
	if err != nil {
		t.Fatalf("acquire after failed load: %v", err)
	}
	defer rel()
	if hit || tbl == nil {
		t.Fatalf("acquire after failed load: hit=%v table=%p, want a fresh parse", hit, tbl)
	}
	if st := c.Stats(); st.Misses != 2 || st.Live != 1 {
		t.Fatalf("stats after reload = %+v", st)
	}
}
