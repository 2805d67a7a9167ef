package bench

// Broadcast fan-out load harness: a live counter simulation stepped
// through a breakpoint storm by one controller while N ws observers
// (and optionally DAP adapter sessions) consume the stop broadcast.
// Reports p50/p99 stop-event latency (broadcast stamp → observer
// receipt), per-edge simulator slowdown attributable to the fan-out,
// coalesce/drop counts, frame-encoding split, and bytes on the wire.
// Used by cmd/hgdb-load and BenchmarkBroadcastFanout.

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dap"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vpi"
)

// FanoutOptions configures one load run.
type FanoutOptions struct {
	// Observers is the number of concurrent ws observer sessions.
	Observers int
	// DAPClients is the number of concurrent DAP adapter sessions
	// bridged onto the same server (each is one more hgdb session plus
	// the DAP translation cost).
	DAPClients int
	// Duration bounds the storm phase by wall clock; Cycles bounds it
	// by stop count. At least one must be set; whichever trips first
	// ends the phase.
	Duration time.Duration
	Cycles   uint64
	// Binary/Delta select the observers' wire negotiation.
	Binary bool
	Delta  bool
	// BareCycles calibrates the no-observer per-edge cost (0 = 200).
	BareCycles uint64
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

// FanoutReport is the measured result of one load run.
type FanoutReport struct {
	Observers  int    `json:"observers"`
	DAPClients int    `json:"dap_clients"`
	Encoding   string `json:"encoding"`
	Delta      bool   `json:"delta"`

	Stops       uint64  `json:"stops"`
	DurationSec float64 `json:"duration_sec"`

	// Stop-event latency from the broadcast timestamp to observer
	// receipt, across every observer and stop.
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`

	// Per-edge simulator cost: one stepped cycle's wall time with the
	// controller alone (bare) vs under full fan-out (loaded).
	BareEdgeUS   float64 `json:"bare_edge_us"`
	LoadedEdgeUS float64 `json:"loaded_edge_us"`
	Slowdown     float64 `json:"slowdown_per_edge"`

	// Delivery accounting summed over every session at the end of the
	// storm (before detach).
	StopsDelivered uint64 `json:"stops_delivered"`
	Coalesced      uint64 `json:"coalesced"`
	Dropped        uint64 `json:"dropped"`
	DeltaFrames    uint64 `json:"delta_frames"`
	FullFrames     uint64 `json:"full_frames"`
	BytesOnWire    uint64 `json:"bytes_on_wire"`
	Resyncs        uint64 `json:"resyncs"`
}

// BytesPerStop is the fan-out cost figure: payload bytes on the wire
// per broadcast stop, across all sessions.
func (r *FanoutReport) BytesPerStop() float64 {
	if r.Stops == 0 {
		return 0
	}
	return float64(r.BytesOnWire) / float64(r.Stops)
}

func fanoutHereLine() int {
	var pcs [1]uintptr
	runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:1])
	f, _ := frames.Next()
	return f.Line
}

// buildFanoutServer serves a small counter design whose breakpoint
// fires every enabled clock edge — the densest possible stop storm.
func buildFanoutServer() (srv *server.Server, s *sim.Simulator, addr string, file string, line int, err error) {
	c := generator.NewCircuit("Counter")
	m := c.NewModule("Counter")
	en := m.Input("en", ir.UIntType(1))
	out := m.Output("out", ir.UIntType(8))
	count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
	var incLine int
	m.When(en, func() {
		count.Set(count.AddMod(m.Lit(1, 8)))
		incLine = fanoutHereLine() - 1
	})
	out.Set(count)
	comp, err := passes.Compile(c.MustBuild(), false)
	if err != nil {
		return nil, nil, "", "", 0, err
	}
	table, err := symtab.Build(comp)
	if err != nil {
		return nil, nil, "", "", 0, err
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		return nil, nil, "", "", 0, err
	}
	s = sim.New(nl)
	rt, err := core.New(vpi.NewSimBackend(s), table)
	if err != nil {
		return nil, nil, "", "", 0, err
	}
	srv = server.New(rt, nil)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, "", "", 0, err
	}
	return srv, s, addr, "fanout.go", incLine, nil
}

// fanoutObserver is one attached ws observer consuming the stop storm.
type fanoutObserver struct {
	cl   *client.Client
	sub  *client.Subscription
	done chan struct{}

	stops     atomic.Uint64
	latencies []int64 // ns, one per received stop; owned by run until done
}

func (o *fanoutObserver) run() {
	defer close(o.done)
	for ev := range o.sub.C {
		if ev.Type != "stop" {
			continue
		}
		o.stops.Add(1)
		if ev.Emit != 0 {
			o.latencies = append(o.latencies, time.Now().UnixNano()-ev.Emit)
		}
	}
}

// fanoutDAP is one DAP adapter session: the adapter end attaches to the
// hgdb server like a real editor integration; the client end initializes
// the session and then consumes (discards) the DAP event stream.
type fanoutDAP struct {
	pipe net.Conn
	done chan struct{}
}

func startFanoutDAP(addr string) (*fanoutDAP, error) {
	clientEnd, adapterEnd := net.Pipe()
	a, err := dap.New(adapterEnd, dap.Options{Addr: addr})
	if err != nil {
		clientEnd.Close()
		adapterEnd.Close()
		return nil, err
	}
	go a.Serve()
	d := &fanoutDAP{pipe: clientEnd, done: make(chan struct{})}
	conn := dap.NewConn(clientEnd)
	if _, err := conn.SendRequest("initialize", map[string]any{"adapterID": "hgdb-load"}); err != nil {
		clientEnd.Close()
		return nil, err
	}
	go func() {
		defer close(d.done)
		for {
			if _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()
	return d, nil
}

func (d *fanoutDAP) close() {
	d.pipe.Close()
	<-d.done
}

// RunFanout executes one load run and returns its report.
func RunFanout(opts FanoutOptions) (*FanoutReport, error) {
	if opts.Duration <= 0 && opts.Cycles == 0 {
		return nil, fmt.Errorf("fanout: need Duration or Cycles")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	srv, s, addr, file, line, err := buildFanoutServer()
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	ctrl, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer ctrl.Close()
	if _, err := ctrl.WaitEvent("welcome", 10*time.Second); err != nil {
		return nil, fmt.Errorf("fanout: controller welcome: %w", err)
	}
	if _, err := ctrl.AddBreakpoint(file, line, ""); err != nil {
		return nil, fmt.Errorf("fanout: breakpoint: %w", err)
	}

	// stepPhase steps the simulation until the cycle or duration bound
	// trips, answering every stop with a continue. The sim goroutine
	// exits only after its last continue, so every cycle is a counted
	// stop.
	stepPhase := func(cycles uint64, dur time.Duration) (uint64, time.Duration, error) {
		var stop atomic.Bool
		simDone := make(chan struct{})
		go func() {
			defer close(simDone)
			for !stop.Load() {
				s.Run(1)
			}
		}()
		var n uint64
		start := time.Now()
		for {
			if _, err := ctrl.WaitStop(30 * time.Second); err != nil {
				stop.Store(true)
				return n, time.Since(start), fmt.Errorf("fanout: lost stop after %d: %w", n, err)
			}
			n++
			if (cycles > 0 && n >= cycles) || (dur > 0 && time.Since(start) >= dur) {
				stop.Store(true)
			}
			if err := ctrl.Command("continue"); err != nil {
				return n, time.Since(start), err
			}
			if stop.Load() {
				break
			}
		}
		<-simDone
		return n, time.Since(start), nil
	}

	// Reset once, then calibrate the bare per-edge cost (controller
	// only, no fan-out).
	s.Reset("Counter.reset", 1)
	s.Poke("Counter.en", 1)
	bareCycles := opts.BareCycles
	if bareCycles == 0 {
		bareCycles = 200
	}
	bn, bd, err := stepPhase(bareCycles, 0)
	if err != nil {
		return nil, err
	}
	bareEdge := bd.Seconds() / float64(bn) * 1e6
	logf("bare: %d edges in %v (%.1f us/edge)", bn, bd.Round(time.Millisecond), bareEdge)

	// Attach the fan-out.
	observers := make([]*fanoutObserver, 0, opts.Observers)
	defer func() {
		for _, o := range observers {
			o.sub.Close()
			o.cl.Close()
			<-o.done
		}
	}()
	for i := 0; i < opts.Observers; i++ {
		cl := client.NewOpts(addr, client.Options{Binary: opts.Binary, Delta: opts.Delta})
		sub := cl.Subscribe(1024, "stop")
		if err := cl.Connect(); err != nil {
			sub.Close()
			return nil, fmt.Errorf("fanout: observer %d: %w", i, err)
		}
		if _, err := cl.WaitEvent("welcome", 10*time.Second); err != nil {
			sub.Close()
			cl.Close()
			return nil, fmt.Errorf("fanout: observer %d welcome: %w", i, err)
		}
		o := &fanoutObserver{cl: cl, sub: sub, done: make(chan struct{})}
		go o.run()
		observers = append(observers, o)
	}
	daps := make([]*fanoutDAP, 0, opts.DAPClients)
	defer func() {
		for _, d := range daps {
			d.close()
		}
	}()
	for i := 0; i < opts.DAPClients; i++ {
		d, err := startFanoutDAP(addr)
		if err != nil {
			return nil, fmt.Errorf("fanout: dap %d: %w", i, err)
		}
		daps = append(daps, d)
	}
	logf("attached %d observers, %d dap clients", len(observers), len(daps))

	// The storm.
	n, d, err := stepPhase(opts.Cycles, opts.Duration)
	if err != nil {
		return nil, err
	}
	loadedEdge := d.Seconds() / float64(n) * 1e6
	logf("storm: %d stops in %v (%.1f us/edge)", n, d.Round(time.Millisecond), loadedEdge)

	// Collect server-side session accounting before any detach tears
	// the sessions (and their counters) down.
	infos, err := ctrl.Sessions()
	if err != nil {
		return nil, fmt.Errorf("fanout: session stats: %w", err)
	}
	rep := &FanoutReport{
		Observers:    len(observers),
		DAPClients:   len(daps),
		Encoding:     "json",
		Delta:        opts.Delta,
		Stops:        n,
		DurationSec:  d.Seconds(),
		BareEdgeUS:   bareEdge,
		LoadedEdgeUS: loadedEdge,
		Slowdown:     loadedEdge / bareEdge,
	}
	if opts.Binary {
		rep.Encoding = "binary"
	}
	for _, info := range infos {
		rep.Coalesced += info.Coalesced
		rep.Dropped += info.Dropped
		rep.DeltaFrames += info.DeltaFrames
		rep.FullFrames += info.FullFrames
		rep.BytesOnWire += info.BytesSent
	}

	// Give in-flight frames a moment to land: wait until the delivered
	// count stops moving (or a deadline), then collect the tallies.
	count := func() uint64 {
		var seen uint64
		for _, o := range observers {
			seen += o.stops.Load()
		}
		return seen
	}
	deadline := time.Now().Add(5 * time.Second)
	prev := count()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur := count()
		if cur == prev {
			break
		}
		prev = cur
	}
	var lats []int64
	for _, o := range observers {
		o.sub.Close()
		o.cl.Close()
		<-o.done
		rep.StopsDelivered += o.stops.Load()
		lats = append(lats, o.latencies...)
		rep.Resyncs += o.cl.Resyncs()
	}
	observers = observers[:0]
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P50LatencyMS = float64(lats[len(lats)/2]) / 1e6
		rep.P99LatencyMS = float64(lats[len(lats)*99/100]) / 1e6
	}
	return rep, nil
}

// PrintFanout renders one report as the hgdb-load text table.
func PrintFanout(w interface{ Write([]byte) (int, error) }, r *FanoutReport) {
	fmt.Fprintf(w, "broadcast fan-out: %d observers + %d dap, %s frames, delta=%v\n",
		r.Observers, r.DAPClients, r.Encoding, r.Delta)
	fmt.Fprintf(w, "  stops            %d in %.2fs\n", r.Stops, r.DurationSec)
	fmt.Fprintf(w, "  stop latency     p50 %.2f ms   p99 %.2f ms\n", r.P50LatencyMS, r.P99LatencyMS)
	fmt.Fprintf(w, "  per-edge cost    bare %.1f us → loaded %.1f us (%.2fx slowdown)\n",
		r.BareEdgeUS, r.LoadedEdgeUS, r.Slowdown)
	fmt.Fprintf(w, "  delivery         %d delivered, %d coalesced, %d dropped, %d resyncs\n",
		r.StopsDelivered, r.Coalesced, r.Dropped, r.Resyncs)
	fmt.Fprintf(w, "  encoding split   %d delta / %d full frames\n", r.DeltaFrames, r.FullFrames)
	fmt.Fprintf(w, "  bytes on wire    %d (%.0f B/stop across the fan-out)\n",
		r.BytesOnWire, r.BytesPerStop())
}
