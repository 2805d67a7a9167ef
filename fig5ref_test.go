package repro_test

import (
	"encoding/json"
	"os"
	"testing"
)

// fig5Reference is the checked-in cost baseline TestFig5FusedRef gates
// against (testdata/fig5_fused_ref.json). Only ns/edge and allocs are
// gated; the rest documents where the number came from.
type fig5Reference struct {
	Comment   string  `json:"comment"`
	Conds     int     `json:"conds"`
	NsPerEdge float64 `json:"ns_per_edge"`
	MaxAllocs int64   `json:"max_allocs"`
}

// TestFig5FusedRef is the CI cost gate on the two-state fast path: it
// re-measures BenchmarkFig5Fused/fused (128 armed conditional
// breakpoints, every dependency dirty every edge) and fails when the
// per-edge cost exceeds 2x the checked-in reference or the steady
// state allocates — the regression modes a change to the shared value
// plane would show first, since four-state values ride the same
// pipeline and must only pay when bits are actually unknown or wide.
//
// Opt-in via HGDB_FIG5_REF (the reference JSON path) so ordinary
// `go test ./...` runs stay timing-independent; CI sets it.
func TestFig5FusedRef(t *testing.T) {
	refPath := os.Getenv("HGDB_FIG5_REF")
	if refPath == "" {
		t.Skip("set HGDB_FIG5_REF=testdata/fig5_fused_ref.json to enable the cost gate")
	}
	raw, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	var ref fig5Reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if ref.NsPerEdge <= 0 {
		t.Fatalf("reference ns_per_edge must be positive, got %v", ref.NsPerEdge)
	}
	res := testing.Benchmark(func(b *testing.B) {
		s, rt := buildFig5FusedBench(b, fig5FusedCond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Poke("Top.x", uint64(i%255)+1)
			s.Step()
		}
		b.StopTimer()
		// The fused program is compiled lazily on the first armed edge;
		// verify after the run that the schedule still matches what the
		// reference measured.
		if stats, ok := rt.FuseInfo(); !ok || stats.Conds != ref.Conds {
			b.Fatalf("fused schedule has %d conditions (fused=%v), reference measured %d — "+
				"the workload changed, re-measure the reference", stats.Conds, ok, ref.Conds)
		}
	})
	got := float64(res.NsPerOp())
	limit := 2 * ref.NsPerEdge
	if got > limit {
		t.Fatalf("fused per-edge cost %.0f ns exceeds 2x reference (%.0f ns): fast-path regression",
			got, ref.NsPerEdge)
	}
	if allocs := res.AllocsPerOp(); allocs > ref.MaxAllocs {
		t.Fatalf("fused steady state allocates (%d allocs/edge, reference allows %d): "+
			"two-state values are leaving the inline planes", allocs, ref.MaxAllocs)
	}
	t.Logf("ref gate: %.0f ns/edge within 2x of reference %.0f ns, %d allocs/edge (N=%d)",
		got, ref.NsPerEdge, res.AllocsPerOp(), res.N)
}
