// Command hgdb-load is the broadcast fan-out load harness: it spins up
// a live counter simulation with the hgdb server attached, steps it
// through a breakpoint storm with one controller, and fans the stop
// broadcast out to N concurrent ws observers (plus optional DAP
// adapter sessions). It reports p50/p99 stop-event latency, per-edge
// simulator slowdown, coalesce/drop counts, the delta/full encoding
// split, and bytes on the wire.
//
// Usage:
//
//	hgdb-load [-observers 1000] [-dap 0] [-duration 5s | -cycles N]
//	          [-binary] [-delta]
//	          [-json] [-ref testdata/broadcast_ref.json] [-v]
//	hgdb-load -runtimes 8 [-observers 50] [-duration 5s]
//
// With -ref the measured p99 stop latency is gated against the
// checked-in reference: exceeding it by more than 2x exits nonzero,
// which is how CI catches fan-out latency regressions.
//
// With -runtimes N the harness switches to hub-farm mode: an
// in-process debug hub hosts N runtimes (alternating live sims and
// replay sessions sharing one trace fixture), each stormed by its own
// controller with -observers sessions attached, and the report breaks
// p50/p99 stop latency out per runtime plus the shared symbol-table
// cache's hit accounting. A replay reaching the end of its trace is
// rewound to the entry; the report counts rewinds per runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
)

// reference is the checked-in regression baseline hgdb-load gates
// against (-ref). Only p99 is gated; the rest documents the
// environment the numbers came from.
type reference struct {
	Comment      string  `json:"comment,omitempty"`
	Observers    int     `json:"observers"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
}

func main() {
	runtimes := flag.Int("runtimes", 0, "hub-farm mode: host this many runtimes on an in-process hub")
	observers := flag.Int("observers", 1000, "concurrent ws observer sessions")
	dapClients := flag.Int("dap", 0, "concurrent DAP adapter sessions")
	duration := flag.Duration("duration", 5*time.Second, "storm duration (wall clock)")
	cycles := flag.Uint64("cycles", 0, "storm length in stops (overrides -duration)")
	binary := flag.Bool("binary", false, "observers negotiate binary frames")
	delta := flag.Bool("delta", false, "observers negotiate delta stop frames")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	refPath := flag.String("ref", "", "reference JSON; fail if p99 latency regresses past 2x")
	verbose := flag.Bool("v", false, "log progress")
	flag.Parse()

	if *runtimes > 0 {
		// The fan-out default of 1000 observers is per-runtime here and
		// would mean thousands of sessions; farm mode defaults lower
		// unless -observers was given explicitly.
		observersSet := false
		flag.Visit(func(f *flag.Flag) { observersSet = observersSet || f.Name == "observers" })
		if !observersSet {
			*observers = 50
		}
		opts := bench.HubFarmOptions{
			Runtimes:  *runtimes,
			Observers: *observers,
			Duration:  *duration,
			Binary:    *binary,
			Delta:     *delta,
		}
		if *verbose {
			opts.Logf = log.Printf
		}
		rep, err := bench.RunHubFarm(opts)
		if err != nil {
			log.Fatalf("hgdb-load: %v", err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				log.Fatal(err)
			}
			return
		}
		bench.PrintHubFarm(os.Stdout, rep)
		return
	}

	opts := bench.FanoutOptions{
		Observers:  *observers,
		DAPClients: *dapClients,
		Duration:   *duration,
		Cycles:     *cycles,
		Binary:     *binary,
		Delta:      *delta,
	}
	if *cycles > 0 {
		opts.Duration = 0
	}
	if *verbose {
		opts.Logf = log.Printf
	}
	rep, err := bench.RunFanout(opts)
	if err != nil {
		log.Fatalf("hgdb-load: %v", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else {
		bench.PrintFanout(os.Stdout, rep)
	}

	if *refPath != "" {
		raw, err := os.ReadFile(*refPath)
		if err != nil {
			log.Fatalf("hgdb-load: ref: %v", err)
		}
		var ref reference
		if err := json.Unmarshal(raw, &ref); err != nil {
			log.Fatalf("hgdb-load: ref: %v", err)
		}
		limit := 2 * ref.P99LatencyMS
		if rep.P99LatencyMS > limit {
			fmt.Fprintf(os.Stderr,
				"hgdb-load: p99 stop latency %.2f ms exceeds 2x reference (%.2f ms @ %d observers)\n",
				rep.P99LatencyMS, ref.P99LatencyMS, ref.Observers)
			os.Exit(1)
		}
		fmt.Printf("ref gate: p99 %.2f ms within 2x of reference %.2f ms\n",
			rep.P99LatencyMS, ref.P99LatencyMS)
	}
}
