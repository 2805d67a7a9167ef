// Command hgdb-replay serves the hgdb debugging protocol over a
// recorded VCD trace instead of a live simulation — the paper's replay
// tool (Figure 1), which unlocks full reverse debugging because the
// backend supports SetTime in both directions.
//
// Usage:
//
//	hgdb-replay -vcd trace.vcd -symtab table.json [-listen :9876]
//	            [-auto | -hold 60s] [-block N] [-checkpoint N]
//
// With -auto the tool replays the trace forward to the end (pausing at
// breakpoint stops, like a live simulation would) and exits. Otherwise
// it serves for -hold: the replay holds at time zero until an attached
// debugger arms a breakpoint, watch or step, runs to the next stop, and
// stops at the trace's last enabled statement instead of wrapping
// around. When -hold expires the server closes, resuming a debugger
// parked at a stop, and the tool exits.
//
// The trace is parsed in one streaming pass into a time-blocked change
// index (-block sets the window width); signal timelines decode only
// when the debugger's breakpoints need them, and backward time travel
// restores periodic value-snapshot checkpoints (-checkpoint sets their
// spacing, 0 = adaptive) instead of rescanning the trace.
//
// If -vcd points at a pre-indexed store file (written by hgdb-index),
// it is opened in O(header) with no text scan — blocks load lazily from
// disk, bounded by -block-cache.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/symtab"
	"repro/internal/vcd"
)

func main() {
	vcdPath := flag.String("vcd", "", "VCD trace to replay (required)")
	symtabPath := flag.String("symtab", "", "symbol table JSON (required)")
	listen := flag.String("listen", "127.0.0.1:9876", "debug protocol listen address")
	auto := flag.Bool("auto", false, "replay forward automatically")
	holdFor := flag.Duration("hold", 60*time.Second, "how long to serve before exiting")
	block := flag.Uint64("block", vcd.DefaultBlockSize, "trace index time-block size (trace timestamp units)")
	checkpoint := flag.Uint64("checkpoint", 0, "reverse-execution checkpoint interval (trace timestamp units, 0 = adaptive)")
	blockCache := flag.Int("block-cache", vcd.DefaultBlockCacheBytes, "resident block byte bound for pre-indexed stores")
	flag.Parse()
	if *vcdPath == "" || *symtabPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	// A pre-indexed store opens in O(header); anything else is raw VCD
	// text and takes the streaming parse path.
	store, err := vcd.OpenStoreFile(*vcdPath, vcd.OpenOptions{BlockCacheBytes: *blockCache})
	switch {
	case err == nil:
		log.Printf("opened pre-indexed store %s (no text scan)", *vcdPath)
	case errors.Is(err, vcd.ErrNotStore):
		vf, err := os.Open(*vcdPath)
		if err != nil {
			log.Fatalf("hgdb-replay: %v", err)
		}
		store, err = vcd.ParseStore(vf, vcd.StoreOptions{BlockSize: *block})
		vf.Close()
		if err != nil {
			log.Fatalf("hgdb-replay: parse vcd: %v", err)
		}
	default:
		log.Fatalf("hgdb-replay: open store: %v", err)
	}
	defer store.Close()
	sf, err := os.Open(*symtabPath)
	if err != nil {
		log.Fatalf("hgdb-replay: %v", err)
	}
	table, err := symtab.Load(sf)
	sf.Close()
	if err != nil {
		log.Fatalf("hgdb-replay: load symtab: %v", err)
	}

	eng := replay.NewStore(store, replay.WithCheckpointInterval(*checkpoint))
	rt, err := core.New(eng, table)
	if err != nil {
		log.Fatalf("hgdb-replay: runtime: %v", err)
	}
	srv := server.New(rt, log.Default())
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("hgdb-replay: %v", err)
	}
	log.Printf("replaying %s (%d cycles, %d signals, %d changes in %d blocks, %s index) on %s",
		*vcdPath, store.MaxTime, store.NumSignals(), store.NumChanges(),
		store.NumBlocks(), fmtBytes(store.IndexBytes()), addr)
	logFourState(store.Stats)

	if *auto {
		for eng.StepForward() {
		}
		log.Printf("replay finished at time %d", eng.Time())
		srv.Close()
		return
	}
	log.Printf("holding for %s; attach with: hgdb %s", *holdFor, addr)
	ctx, cancel := context.WithTimeout(context.Background(), *holdFor)
	defer cancel()
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		rt.Drive(ctx, eng.StepForward)
	}()
	<-ctx.Done()
	// Closing resumes a debugger parked at a stop, so the drive loop
	// sees the deadline instead of holding the process past it.
	srv.Close()
	<-driven
}

// logFourState reports the trace's four-state footprint: the widest
// change literal seen and how many changes carry x/z bits. Silent for
// plain two-state, ≤64-bit traces.
func logFourState(ps vcd.ParseStats) {
	if ps.MaxWidth > 0 {
		log.Printf("  widest change literal: %d bits", ps.MaxWidth)
	}
	if ps.XZChanges > 0 {
		log.Printf("  %d changes carry x/z bits (four-state records)", ps.XZChanges)
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
