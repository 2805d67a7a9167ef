// Command hgdb-index converts a VCD trace into a pre-indexed store
// file: the time-blocked change index vcd.ParseStore builds in memory,
// persisted in the versioned on-disk format so hgdb-replay (and the
// future debug hub's shared replay fleet) opens it in O(header) with
// no text scan — blocks stream from disk on demand.
//
// Usage:
//
//	hgdb-index -vcd trace.vcd [-out trace.hgdbstore] [-block N]
//
// Indexing is one sequential pass: each block is checksummed and
// written as soon as the text scan completes it, so peak memory stays
// at the sparse per-signal index, not the whole store. The store goes
// to a temporary file beside -out and replaces -out only once complete,
// so a failed run leaves an existing store as it was; an -out that
// names the input trace is refused.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/vcd"
)

func main() {
	vcdPath := flag.String("vcd", "", "VCD trace to index (required)")
	out := flag.String("out", "", "store file to write (default: <vcd>.hgdbstore)")
	block := flag.Uint64("block", vcd.DefaultBlockSize, "time-block size (trace timestamp units)")
	flag.Parse()
	if *vcdPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	outPath := *out
	if outPath == "" {
		outPath = *vcdPath + ".hgdbstore"
	}
	start := time.Now()
	stats, err := vcd.IndexFile(*vcdPath, outPath, vcd.StoreOptions{BlockSize: *block})
	if err != nil {
		log.Fatalf("hgdb-index: %v", err)
	}
	log.Printf("indexed %s -> %s in %s", *vcdPath, outPath, time.Since(start).Round(time.Millisecond))
	log.Printf("  %d cycles, %d signals, %d changes in %d blocks, %s store",
		stats.MaxTime, stats.Signals, stats.Changes, stats.Blocks, fmtBytes(int(stats.Bytes)))
	if stats.Parse.MaxWidth > 0 {
		log.Printf("  widest change literal: %d bits", stats.Parse.MaxWidth)
	}
	if stats.Parse.XZChanges > 0 {
		log.Printf("  %d changes carry x/z bits (four-state records)", stats.Parse.XZChanges)
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
