package expr

import "sync"

// This file implements the per-condition compile cache. A design with N
// instances of one generated statement arms N breakpoints whose enable
// conditions are the same source string; without the cache each arm
// re-lexes, re-parses, re-folds and re-deduplicates Names for the
// identical expression. Parsed nodes and programs are immutable, so
// one cached copy is shared by every breakpoint instance (per-instance
// state — operand slots, resolved paths — lives with the caller);
// re-arming after a breakpoint change then rebuilds the fused schedule
// from cached programs instead of from source.

// parseCompileCacheLimit bounds the cache; debuggers see a bounded set
// of distinct condition sources (the symbol table's enables plus what
// the user types), so eviction is a rare safety valve, not a policy.
const parseCompileCacheLimit = 4096

var (
	pcMu    sync.Mutex
	pcCache = map[string]*pcEntry{}
	pcHits  uint64
)

type pcEntry struct {
	node Node
	prog *Program
}

// ParseCompile parses and folds one expression, returning a shared
// immutable (AST, program) pair from the process-wide cache when the
// identical source was seen before. Parse errors are not cached.
func ParseCompile(src string) (Node, *Program, error) {
	pcMu.Lock()
	if e, ok := pcCache[src]; ok {
		pcHits++
		pcMu.Unlock()
		return e.node, e.prog, nil
	}
	pcMu.Unlock()
	n, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	p := newProgram(n)
	pcMu.Lock()
	if len(pcCache) >= parseCompileCacheLimit {
		pcCache = map[string]*pcEntry{}
	}
	pcCache[src] = &pcEntry{node: n, prog: p}
	pcMu.Unlock()
	return n, p, nil
}

// CacheStats reports (entries, hits) for the parse/compile cache.
func CacheStats() (entries int, hits uint64) {
	pcMu.Lock()
	defer pcMu.Unlock()
	return len(pcCache), pcHits
}
