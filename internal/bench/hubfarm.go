package bench

// Hub farm load harness: one in-process debug hub hosting N runtimes
// (alternating live counter simulations and replay sessions over one
// shared trace fixture), each driven through a breakpoint storm by its
// own controller while M observers per runtime consume the stop
// broadcast. A replay that reaches the end of its trace is rewound to
// the entry and re-armed. Reports per-runtime and aggregate p50/p99
// stop latency, per-runtime rewinds, plus the shared symbol-table
// cache's hit accounting — the number that shows the farm loads one
// table, not N. Used by cmd/hgdb-load -runtimes and the hub CI soak.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/hub"
	"repro/internal/proto"
	"repro/internal/vcd"
)

// HubFarmOptions configures one farm run.
type HubFarmOptions struct {
	// Runtimes is the number of concurrent runtimes on the hub; even
	// indices launch live sims, odd indices replay a shared fixture.
	Runtimes int
	// Observers is the observer session count per runtime (each
	// runtime additionally gets one controller driving the storm).
	Observers int
	// Duration bounds each runtime's storm phase by wall clock.
	Duration time.Duration
	// Binary/Delta select the observers' wire negotiation.
	Binary bool
	Delta  bool
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

// HubRuntimeReport is one runtime's measured storm. Stops counts
// breakpoint stops; Rewinds counts the times a replay reached the end
// of its trace and was rewound to the entry.
type HubRuntimeReport struct {
	ID           string  `json:"id"`
	Kind         string  `json:"kind"`
	Stops        uint64  `json:"stops"`
	Rewinds      uint64  `json:"rewinds"`
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
}

// HubFarmReport is the measured result of one farm run.
type HubFarmReport struct {
	Runtimes            int     `json:"runtimes"`
	ObserversPerRuntime int     `json:"observers_per_runtime"`
	DurationSec         float64 `json:"duration_sec"`

	TotalStops   uint64  `json:"total_stops"`
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`

	// Shared symbol-table cache accounting: every replay runtime after
	// the first should be a hit.
	SymtabHits   uint64 `json:"symtab_hits"`
	SymtabMisses uint64 `json:"symtab_misses"`
	SymtabLive   int    `json:"symtab_live"`

	PerRuntime []HubRuntimeReport `json:"per_runtime"`
}

// recordFarmFixture records the counter design into dir and returns
// the trace and symbol-table paths every replay runtime shares.
func recordFarmFixture(dir string) (vcdPath, symtabPath string, err error) {
	srv, s, _, _, _, err := buildFanoutServer()
	if err != nil {
		return "", "", err
	}
	defer srv.Close()
	vcdPath = filepath.Join(dir, "farm.vcd")
	vf, err := os.Create(vcdPath)
	if err != nil {
		return "", "", err
	}
	rec := vcd.NewRecorder(s, vf)
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	s.Run(64)
	if err := rec.Flush(); err != nil {
		return "", "", err
	}
	if err := vf.Close(); err != nil {
		return "", "", err
	}
	symtabPath = filepath.Join(dir, "farm.symtab")
	sf, err := os.Create(symtabPath)
	if err != nil {
		return "", "", err
	}
	if err := srv.Runtime().Table().Save(sf); err != nil {
		return "", "", err
	}
	return vcdPath, symtabPath, sf.Close()
}

// discoverBreakLine asks a runtime session for any breakable file:line
// through the info surface — the farm does not know which design each
// runtime serves.
func discoverBreakLine(cl *client.Client) (string, int, error) {
	raw, err := cl.Info("files", "")
	if err != nil {
		return "", 0, err
	}
	var files []string
	if err := json.Unmarshal(raw, &files); err != nil || len(files) == 0 {
		return "", 0, fmt.Errorf("no breakable files (%s)", raw)
	}
	raw, err = cl.Info("lines", files[0])
	if err != nil {
		return "", 0, err
	}
	var lines []int
	if err := json.Unmarshal(raw, &lines); err != nil || len(lines) == 0 {
		return "", 0, fmt.Errorf("no breakable lines in %s (%s)", files[0], raw)
	}
	return files[0], lines[0], nil
}

func latencyPercentiles(lats []int64) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return float64(lats[len(lats)/2]) / 1e6, float64(lats[len(lats)*99/100]) / 1e6
}

// RunHubFarm executes one farm run and returns its report.
func RunHubFarm(opts HubFarmOptions) (*HubFarmReport, error) {
	if opts.Runtimes <= 0 {
		return nil, fmt.Errorf("hubfarm: need Runtimes > 0")
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("hubfarm: need Duration")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	h := hub.New(hub.Options{})
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer h.Close()

	dir, err := os.MkdirTemp("", "hgdb-farm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	vcdPath, symtabPath, err := recordFarmFixture(dir)
	if err != nil {
		return nil, fmt.Errorf("hubfarm: fixture: %w", err)
	}

	infos := make([]proto.RuntimeInfo, opts.Runtimes)
	for i := range infos {
		spec := proto.RuntimeSpec{Name: fmt.Sprintf("farm-%d", i), Kind: "sim", Design: "counter"}
		if i%2 == 1 {
			spec = proto.RuntimeSpec{Name: spec.Name, Kind: "replay", VCD: vcdPath, Symtab: symtabPath}
		}
		info, err := h.Launch(spec)
		if err != nil {
			return nil, fmt.Errorf("hubfarm: launch %s: %w", spec.Name, err)
		}
		infos[i] = info
	}
	logf("launched %d runtimes on %s", len(infos), addr)

	// Each runtime's storm runs on its own worker: a controller arms a
	// discovered breakpoint and answers stops with continues while the
	// observers time the broadcast.
	reports := make([]HubRuntimeReport, len(infos))
	stamps := make([][]int64, len(infos))
	errs := make([]error, len(infos))
	var wg sync.WaitGroup
	for i, info := range infos {
		wg.Add(1)
		go func(i int, info proto.RuntimeInfo) {
			defer wg.Done()
			reports[i], stamps[i], errs[i] = runFarmRuntime(addr, info, opts)
		}(i, info)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("hubfarm: runtime %s: %w", infos[i].ID, err)
		}
	}

	stats := h.SymtabStats()
	rep := &HubFarmReport{
		Runtimes:            opts.Runtimes,
		ObserversPerRuntime: opts.Observers,
		DurationSec:         opts.Duration.Seconds(),
		SymtabHits:          stats.Hits,
		SymtabMisses:        stats.Misses,
		SymtabLive:          stats.Live,
		PerRuntime:          reports,
	}
	// Aggregate percentiles re-merge every runtime's raw stamps;
	// averaging the per-runtime percentiles would flatten the tails.
	var all []int64
	for i, r := range reports {
		rep.TotalStops += r.Stops
		all = append(all, stamps[i]...)
	}
	rep.P50LatencyMS, rep.P99LatencyMS = latencyPercentiles(all)
	return rep, nil
}

// runFarmRuntime drives one runtime's storm and measures it,
// returning the raw latency stamps for the caller's aggregate merge.
func runFarmRuntime(addr string, info proto.RuntimeInfo, opts HubFarmOptions) (HubRuntimeReport, []int64, error) {
	rep := HubRuntimeReport{ID: info.ID, Kind: info.Kind}

	ctrl, err := client.DialOpts(addr, client.Options{Runtime: info.ID})
	if err != nil {
		return rep, nil, err
	}
	defer ctrl.Close()
	if _, err := ctrl.WaitEvent("welcome", 10*time.Second); err != nil {
		return rep, nil, fmt.Errorf("controller welcome: %w", err)
	}
	file, line, err := discoverBreakLine(ctrl)
	if err != nil {
		return rep, nil, err
	}

	observers := make([]*fanoutObserver, 0, opts.Observers)
	defer func() {
		for _, o := range observers {
			o.sub.Close()
			o.cl.Close()
			<-o.done
		}
	}()
	for i := 0; i < opts.Observers; i++ {
		cl := client.NewOpts(addr, client.Options{
			Runtime: info.ID, Binary: opts.Binary, Delta: opts.Delta,
		})
		sub := cl.Subscribe(1024, "stop")
		if err := cl.Connect(); err != nil {
			sub.Close()
			return rep, nil, fmt.Errorf("observer %d: %w", i, err)
		}
		if _, err := cl.WaitEvent("welcome", 10*time.Second); err != nil {
			sub.Close()
			cl.Close()
			return rep, nil, fmt.Errorf("observer %d welcome: %w", i, err)
		}
		o := &fanoutObserver{cl: cl, sub: sub, done: make(chan struct{})}
		go o.run()
		observers = append(observers, o)
	}

	if _, err := ctrl.AddBreakpoint(file, line, ""); err != nil {
		return rep, nil, fmt.Errorf("breakpoint %s:%d: %w", file, line, err)
	}
	deadline := time.Now().Add(opts.Duration)
	for {
		stop, err := ctrl.WaitStop(30 * time.Second)
		if err != nil {
			return rep, nil, fmt.Errorf("lost stop after %d: %w", rep.Stops, err)
		}
		if stop.StepStop && stop.Reverse {
			// The replay holds at the end of its trace: rewind to the
			// entry and re-arm, so the storm keeps hitting breakpoints.
			rep.Rewinds++
			if err := rewindFarmReplay(ctrl, file, line); err != nil {
				return rep, nil, fmt.Errorf("rewind %d: %w", rep.Rewinds, err)
			}
			continue
		}
		rep.Stops++
		if time.Now().After(deadline) {
			// Disarm before the final continue so the runtime parks once
			// the storm ends.
			if err := ctrl.ClearBreakpoints(); err != nil {
				return rep, nil, err
			}
			if err := ctrl.Command("continue"); err != nil {
				return rep, nil, err
			}
			break
		}
		if err := ctrl.Command("continue"); err != nil {
			return rep, nil, err
		}
	}

	// Let in-flight frames land, then fold the observers' stamps.
	time.Sleep(100 * time.Millisecond)
	var lats []int64
	for _, o := range observers {
		o.sub.Close()
		o.cl.Close()
		<-o.done
		lats = append(lats, o.latencies...)
	}
	observers = observers[:0]
	rep.P50LatencyMS, rep.P99LatencyMS = latencyPercentiles(append([]int64(nil), lats...))
	return rep, lats, nil
}

// rewindFarmReplay answers a replay's end-of-trace stop: with nothing
// armed, reverse-continue walks back to the trace's entry; the
// breakpoint is then re-armed and the storm continues from there.
func rewindFarmReplay(ctrl *client.Client, file string, line int) error {
	if err := ctrl.ClearBreakpoints(); err != nil {
		return err
	}
	if err := ctrl.Command("reverse-continue"); err != nil {
		return err
	}
	if _, err := ctrl.WaitStop(30 * time.Second); err != nil {
		return fmt.Errorf("entry stop: %w", err)
	}
	if _, err := ctrl.AddBreakpoint(file, line, ""); err != nil {
		return err
	}
	return ctrl.Command("continue")
}

// PrintHubFarm renders one report as the hgdb-load text table.
func PrintHubFarm(w interface{ Write([]byte) (int, error) }, r *HubFarmReport) {
	fmt.Fprintf(w, "hub farm: %d runtimes × %d observers, %.1fs storm each\n",
		r.Runtimes, r.ObserversPerRuntime, r.DurationSec)
	fmt.Fprintf(w, "  stops            %d total\n", r.TotalStops)
	fmt.Fprintf(w, "  stop latency     p50 %.2f ms   p99 %.2f ms (aggregate)\n",
		r.P50LatencyMS, r.P99LatencyMS)
	fmt.Fprintf(w, "  symtab cache     %d hits / %d misses, %d live table(s)\n",
		r.SymtabHits, r.SymtabMisses, r.SymtabLive)
	for _, rt := range r.PerRuntime {
		fmt.Fprintf(w, "  %-10s %-7s %6d stops  %3d rewinds   p50 %.2f ms   p99 %.2f ms\n",
			rt.ID, rt.Kind, rt.Stops, rt.Rewinds, rt.P50LatencyMS, rt.P99LatencyMS)
	}
}
