package expr

import (
	"testing"

	"repro/internal/eval"
)

// TestParseCompileCacheShares pins the compile cache's contract: the
// same source returns the same shared Program (so N instances of one
// statement fold once), and the shared program still evaluates
// correctly.
func TestParseCompileCacheShares(t *testing.T) {
	src := "cache_probe_a + cache_probe_b == 9"
	_, p1, err := ParseCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	_, hitsBefore := CacheStats()
	n2, p2, err := ParseCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second ParseCompile returned a distinct Program; cache missed")
	}
	if _, hits := CacheStats(); hits != hitsBefore+1 {
		t.Fatalf("hit counter did not advance: %d -> %d", hitsBefore, hits)
	}
	// The shared program fuses into independent schedules, each agreeing
	// with EvalBits over the shared tree.
	slots := map[string]int{"cache_probe_a": 0, "cache_probe_b": 1}
	env := []eval.Value{eval.Make(4, 8, false), eval.Make(5, 8, false)}
	want, err := EvalBits(n2, slotEnv(slots, env))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		fs := Fuse([]FusedCondition{{Cond: p2, CondSlots: []int{0, 1}}}, slotTypes(env))
		got, fused := fuseRun(fs, env, nil)
		if !fused[0] {
			t.Fatal("cached program not fused")
		}
		if err := checkFused(got[0], want, nil, false); err != nil {
			t.Fatalf("cached program: %v", err)
		}
	}
}

func TestParseCompileCacheErrorsNotCached(t *testing.T) {
	if _, _, err := ParseCompile("1 +"); err == nil {
		t.Fatal("expected parse error")
	}
	entries, _ := CacheStats()
	if _, _, err := ParseCompile("1 +"); err == nil {
		t.Fatal("expected parse error")
	}
	if after, _ := CacheStats(); after != entries {
		t.Fatal("error result was cached")
	}
}
