// Hub farm: many runtimes behind one endpoint.
//
// An in-process debug hub hosts a small farm — one live counter
// simulation plus two replay sessions over the same recorded trace —
// and a hub control session launches, lists, and evicts them while
// regular debugger sessions attach to individual runtimes through the
// same endpoint (?runtime=<id> on the upgrade URL). The two replays
// load their symbol table through the hub's content-keyed shared
// cache: one parse, one cache hit.
//
// Run: go run ./examples/hub_farm
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/generator"
	"repro/internal/hub"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/proto"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
)

// recordFixture simulates the counter design once and writes the
// trace + symbol table a replay runtime needs — the files any real
// deployment would have lying around from a failed regression run.
func recordFixture(dir string) (vcdPath, symtabPath string) {
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
	})
	out.Set(count)

	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		log.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		log.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	s := sim.New(nl)

	vcdPath = filepath.Join(dir, "counter.vcd")
	vf, err := os.Create(vcdPath)
	if err != nil {
		log.Fatal(err)
	}
	rec := vcd.NewRecorder(s, vf)
	s.Reset("Counter.reset", 2)
	s.Poke("Counter.en", 1)
	s.Run(64)
	if err := rec.Flush(); err != nil {
		log.Fatal(err)
	}
	vf.Close()

	symtabPath = filepath.Join(dir, "counter.symtab")
	sf, err := os.Create(symtabPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := table.Save(sf); err != nil {
		log.Fatal(err)
	}
	sf.Close()
	return vcdPath, symtabPath
}

// discoverBreakLine asks a runtime session for any breakable
// file:line through the info surface — the generic way to arm a
// breakpoint on a design this client did not build itself.
func discoverBreakLine(cl *client.Client) (string, int) {
	raw, err := cl.Info("files", "")
	if err != nil {
		log.Fatal(err)
	}
	var files []string
	if err := json.Unmarshal(raw, &files); err != nil || len(files) == 0 {
		log.Fatalf("no breakable files (%s)", raw)
	}
	raw, err = cl.Info("lines", files[0])
	if err != nil {
		log.Fatal(err)
	}
	var lines []int
	if err := json.Unmarshal(raw, &lines); err != nil || len(lines) == 0 {
		log.Fatalf("no breakable lines in %s (%s)", files[0], raw)
	}
	return files[0], lines[0]
}

func printListing(hc *client.HubClient) {
	infos, err := hc.Runtimes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %-4s %-7s %-8s %-8s %-7s %s\n",
		"ID", "KIND", "STATE", "TOP", "REVERSE", "SOURCE")
	for _, info := range infos {
		shared := ""
		if info.SymtabShared {
			shared = " (shared symtab)"
		}
		fmt.Printf("   %-4s %-7s %-8s %-8s %-7v %s%s\n",
			info.ID, info.Kind, info.State, info.Top, info.Reverse,
			filepath.Base(info.Source), shared)
	}
}

func main() {
	dir, err := os.MkdirTemp("", "hub_farm")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	vcdPath, symtabPath := recordFixture(dir)

	// 1. One hub, one endpoint. cmd/hgdb-hub is this with a flag parser.
	h := hub.New(hub.Options{})
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	fmt.Printf("hub listening on %s\n", addr)

	// 2. A control session launches the farm: one live simulation, two
	// replays over the same recorded trace.
	hc, err := client.DialHub(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer hc.Close()

	for _, spec := range []proto.RuntimeSpec{
		{Name: "c0", Kind: "sim", Design: "counter"},
		{Name: "r0", Kind: "replay", VCD: vcdPath, Symtab: symtabPath},
		{Name: "r1", Kind: "replay", VCD: vcdPath, Symtab: symtabPath},
	} {
		if _, err := hc.Launch(spec); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nregistry after launch:")
	printListing(hc)

	// The two replays share one symbol table: the second Acquire of the
	// same content is a cache hit on the first one's parsed table.
	stats := h.SymtabStats()
	fmt.Printf("\nshared symtab cache: %d miss, %d hit, %d live table(s)\n",
		stats.Misses, stats.Hits, stats.Live)

	// 3. Debug the live simulation — a plain client session, routed to
	// c0 by the hub; everything past the dial is the standalone flow.
	cl, err := hc.Attach("c0")
	if err != nil {
		log.Fatal(err)
	}
	file, line := discoverBreakLine(cl)
	if _, err := cl.AddBreakpoint(file, line, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nc0 (live sim), breakpoint at %s:%d:\n", file, line)
	for i := 0; i < 3; i++ {
		stop, err := cl.WaitStop(5 * time.Second)
		if err != nil {
			log.Fatal(err)
		}
		val, err := cl.GetValue("Counter.count")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   stop at t=%d  count=%d\n", stop.Time, val.Value)
		if err := cl.Command("continue"); err != nil {
			log.Fatal(err)
		}
	}
	if err := cl.ClearBreakpoints(); err != nil {
		log.Fatal(err)
	}
	if err := cl.Command("continue"); err != nil {
		log.Fatal(err)
	}
	cl.Close()

	// 4. Debug a replay — same endpoint, different runtime, and this
	// one can step backwards. The replay has waited at time 0 since
	// launch: arming the breakpoint wakes its drive loop.
	rcl, err := hc.Attach("r0")
	if err != nil {
		log.Fatal(err)
	}
	file, line = discoverBreakLine(rcl)
	if _, err := rcl.AddBreakpoint(file, line, ""); err != nil {
		log.Fatal(err)
	}
	stop, err := rcl.WaitStop(5 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nr0 (replay), stop at t=%d; reverse-step:\n", stop.Time)
	if err := rcl.Command("reverse-step"); err != nil {
		log.Fatal(err)
	}
	back, err := rcl.WaitStop(5 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   now at t=%d (went backwards: %v)\n", back.Time, back.Time <= stop.Time)
	if err := rcl.ClearBreakpoints(); err != nil {
		log.Fatal(err)
	}
	if err := rcl.Command("continue"); err != nil {
		log.Fatal(err)
	}
	rcl.Close()

	// 5. Evict r1: its sessions (none here) get goodbyes, its trace
	// store closes, its shared symbol-table handle is released, and the
	// registry forgets it. Siblings are untouched.
	if err := hc.Evict("r1"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nregistry after evicting r1:")
	printListing(hc)
}
