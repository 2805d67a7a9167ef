package bench

import (
	"testing"
)

// TestRunFanoutSmoke keeps the load harness itself under tier-1 test:
// a short storm against a modest fan-out must produce a coherent
// report — every stop delivered somewhere, bytes on the wire, sane
// latency ordering.
func TestRunFanoutSmoke(t *testing.T) {
	rep, err := RunFanout(FanoutOptions{
		Observers:  25,
		DAPClients: 2,
		Cycles:     20,
		Binary:     true,
		Delta:      true,
		BareCycles: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stops != 20 {
		t.Fatalf("stops = %d, want 20", rep.Stops)
	}
	if rep.StopsDelivered == 0 {
		t.Fatal("no stops delivered to any observer")
	}
	if rep.BytesOnWire == 0 {
		t.Fatal("no bytes on wire")
	}
	if rep.P99LatencyMS < rep.P50LatencyMS {
		t.Fatalf("p99 %.3fms < p50 %.3fms", rep.P99LatencyMS, rep.P50LatencyMS)
	}
	if rep.Resyncs != 0 {
		t.Fatalf("%d delta resyncs in a 20-stop storm", rep.Resyncs)
	}
	t.Logf("smoke: p50=%.2fms p99=%.2fms slowdown=%.2fx bytes/stop=%.0f delta/full=%d/%d",
		rep.P50LatencyMS, rep.P99LatencyMS, rep.Slowdown,
		rep.BytesPerStop(), rep.DeltaFrames, rep.FullFrames)
}

// BenchmarkBroadcastFanout measures the broadcast path at 1k observers
// against a live sim, one stepped stop per iteration. Sub-benchmarks
// cover the shared encode-once path with JSON and with binary+delta
// frames; bytes-on-wire per stop and p99 latency are reported as
// custom metrics. See DESIGN.md for reference numbers, including the
// retired baseline that encoded every frame per session.
func BenchmarkBroadcastFanout(b *testing.B) {
	observers := 1000
	if testing.Short() {
		observers = 100
	}
	for _, cfg := range []struct {
		name          string
		binary, delta bool
	}{
		{"shared-json", false, false},
		{"shared-binary-delta", true, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rep, err := RunFanout(FanoutOptions{
				Observers:  observers,
				Cycles:     uint64(b.N),
				Binary:     cfg.binary,
				Delta:      cfg.delta,
				BareCycles: 50,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.BytesPerStop(), "wire-B/stop")
			b.ReportMetric(rep.P99LatencyMS, "p99-ms")
			b.ReportMetric(rep.Slowdown, "edge-slowdown")
			b.ReportMetric(float64(rep.Coalesced)/float64(rep.Stops), "coalesced/stop")
		})
	}
}
