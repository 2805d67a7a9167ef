package hub

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/proto"
	"repro/internal/rtl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
)

// startHub serves an empty hub on a loopback port.
func startHub(t *testing.T) (*Hub, string) {
	t.Helper()
	h := New(Options{})
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h, addr
}

// replayFixture records a short counter-design trace and writes it and
// its symbol table to dir, returning both paths. Every replay runtime
// in these tests shares this one fixture — which is exactly what the
// shared symtab cache is for.
func replayFixture(t testing.TB, dir string) (vcdPath, symtabPath string) {
	t.Helper()
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
		t.Fatal(err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(nl)

	vcdPath = filepath.Join(dir, "counter.vcd")
	vf, err := os.Create(vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	rec := vcd.NewRecorder(s, vf)
	s.Reset("Counter.reset", 2)
	s.Poke("Counter.en", 1)
	s.Run(64)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	vf.Close()

	symtabPath = filepath.Join(dir, "counter.symtab")
	sf, err := os.Create(symtabPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Save(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	return vcdPath, symtabPath
}

// discoverLine asks a runtime session for any breakpointable
// file:line via the info surface — the generic way to arm a
// breakpoint on a design the test did not build itself.
func discoverLine(t testing.TB, cl *client.Client) (string, int) {
	t.Helper()
	raw, err := cl.Info("files", "")
	if err != nil {
		t.Fatalf("info files: %v", err)
	}
	var files []string
	if err := json.Unmarshal(raw, &files); err != nil || len(files) == 0 {
		t.Fatalf("no breakpointable files: %v (%s)", err, raw)
	}
	raw, err = cl.Info("lines", files[0])
	if err != nil {
		t.Fatalf("info lines: %v", err)
	}
	var lines []int
	if err := json.Unmarshal(raw, &lines); err != nil || len(lines) == 0 {
		t.Fatalf("no lines in %s: %v (%s)", files[0], err, raw)
	}
	return files[0], lines[0]
}

func TestHubLaunchAttachEvict(t *testing.T) {
	_, addr := startHub(t)
	hc, err := client.DialHub(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	info, err := hc.Launch(proto.RuntimeSpec{Name: "c0", Kind: "sim", Design: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "c0" || info.State != proto.RuntimeServing || info.Top != "Counter" {
		t.Fatalf("launch info = %+v", info)
	}
	if info.Reverse {
		t.Fatal("live sim advertised reverse execution")
	}

	ctrl, err := hc.Attach("c0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ev, err := ctrl.WaitEvent("welcome", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Runtime != "c0" {
		t.Fatalf("welcome routed to runtime %q, want c0", ev.Runtime)
	}
	obs, err := hc.Attach("c0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	if _, err := obs.WaitEvent("welcome", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The runtime behaves exactly like a standalone server: breakpoint,
	// stop, evaluate, continue.
	file, line := discoverLine(t, ctrl)
	if _, err := ctrl.AddBreakpoint(file, line, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.WaitStop(10 * time.Second); err != nil {
		t.Fatalf("no stop from hub-driven sim: %v", err)
	}
	if _, err := obs.GetValue("Counter.count"); err != nil {
		t.Fatalf("observer read through hub: %v", err)
	}

	infos, err := hc.Runtimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Sessions != 2 {
		t.Fatalf("listing = %+v", infos)
	}

	// Evict while the sim is parked at the stop: both sessions must get
	// goodbyes naming the runtime, and the registry must empty.
	if err := hc.Evict("c0"); err != nil {
		t.Fatal(err)
	}
	for name, cl := range map[string]*client.Client{"controller": ctrl, "observer": obs} {
		gb, err := cl.WaitEvent("goodbye", 5*time.Second)
		if err != nil {
			t.Fatalf("%s: no goodbye: %v", name, err)
		}
		if gb.Reason != "shutdown" || gb.Runtime != "c0" {
			t.Fatalf("%s: goodbye = %+v", name, gb)
		}
	}
	if infos, _ := hc.Runtimes(); len(infos) != 0 {
		t.Fatalf("registry not empty after evict: %+v", infos)
	}

	// Attaching to the evicted id fails at the upgrade.
	if _, err := hc.Attach("c0"); err == nil {
		t.Fatal("attach to evicted runtime succeeded")
	}
	// Evicting it again errors cleanly.
	if err := hc.Evict("c0"); err == nil {
		t.Fatal("second evict succeeded")
	}
}

func TestHubReplayRuntimesShareSymtab(t *testing.T) {
	h, addr := startHub(t)
	vcdPath, symtabPath := replayFixture(t, t.TempDir())
	hc, err := client.DialHub(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	const n = 6
	for i := 0; i < n; i++ {
		info, err := hc.Launch(proto.RuntimeSpec{
			Name: fmt.Sprintf("r%d", i), Kind: "replay",
			VCD: vcdPath, Symtab: symtabPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Reverse {
			t.Fatalf("replay runtime %s without reverse execution", info.ID)
		}
		if (i == 0) == info.SymtabShared {
			t.Fatalf("runtime %d symtab_shared = %v", i, info.SymtabShared)
		}
	}
	st := h.SymtabStats()
	if st.Misses != 1 || st.Hits != n-1 || st.Live != 1 {
		t.Fatalf("cache stats after %d replay launches = %+v", n, st)
	}

	// Reverse execution works through the hub: park at a stop, step
	// back, confirm the stop is marked reverse.
	ctrl, err := hc.Attach("r0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	file, line := discoverLine(t, ctrl)
	if _, err := ctrl.AddBreakpoint(file, line, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.WaitStop(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Command("reverse-step"); err != nil {
		t.Fatal(err)
	}
	stop, err := ctrl.WaitStop(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !stop.Reverse {
		t.Fatalf("reverse-step stop not marked reverse: %+v", stop)
	}
	// Reverse-continue is one walk inside the runtime: from a later hit
	// it lands on an earlier one, marked reverse, at the cost of exactly
	// one core stop.
	for i := 0; i < 2; i++ {
		if err := ctrl.Command("continue"); err != nil {
			t.Fatal(err)
		}
		if stop, err = ctrl.WaitStop(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	rt := h.Server("r0").Runtime()
	_, stops0 := rt.Stats()
	if err := ctrl.Command("reverse-continue"); err != nil {
		t.Fatal(err)
	}
	back, err := ctrl.WaitStop(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, stops1 := rt.Stats(); stops1-stops0 != 1 {
		t.Fatalf("reverse-continue cost %d core stops, want 1", stops1-stops0)
	}
	if !back.Reverse || back.StepStop || back.Time >= stop.Time {
		t.Fatalf("reverse-continue from t=%d landed at t=%d (reverse=%v step=%v)",
			stop.Time, back.Time, back.Reverse, back.StepStop)
	}

	// Evicting all but one keeps the table resident and referenced;
	// evicting the last parks it idle (still resident for relaunch).
	ctrl.Close()
	for i := 0; i < n; i++ {
		if err := hc.Evict(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st = h.SymtabStats()
	if st.Live != 0 || st.Idle != 1 {
		t.Fatalf("cache stats after evicting all = %+v", st)
	}
	// A relaunch revives the idle table: still no second parse.
	if _, err := hc.Launch(proto.RuntimeSpec{
		Name: "r-again", Kind: "replay", VCD: vcdPath, Symtab: symtabPath,
	}); err != nil {
		t.Fatal(err)
	}
	if st = h.SymtabStats(); st.Misses != 1 {
		t.Fatalf("relaunch re-parsed the table: %+v", st)
	}
}

// TestHubFarmIsolation is the acceptance e2e: a farm of concurrent
// runtimes (mixed sim and replay), three clients each, all launched
// and exercised in parallel under -race. Each controller arms a
// breakpoint and commands its own runtime through stops while the
// observers read state; every event must carry the right runtime id,
// and runtimes without breakpoints must see no stops. Half the farm is
// then evicted concurrently while the surviving half keeps working.
func TestHubFarmIsolation(t *testing.T) {
	h, addr := startHub(t)
	vcdPath, symtabPath := replayFixture(t, t.TempDir())

	const nRuntimes = 24
	const nObservers = 2 // + 1 controller = 3 clients per runtime

	hc, err := client.DialHub(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	// Launch the whole farm concurrently: even-numbered runtimes are
	// live counter sims, odd-numbered are replays of the shared trace.
	var wg sync.WaitGroup
	errs := make(chan error, nRuntimes)
	for i := 0; i < nRuntimes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := proto.RuntimeSpec{Name: fmt.Sprintf("farm-%d", i), Kind: "sim", Design: "counter"}
			if i%2 == 1 {
				spec = proto.RuntimeSpec{
					Name: fmt.Sprintf("farm-%d", i), Kind: "replay",
					VCD: vcdPath, Symtab: symtabPath,
				}
			}
			if _, err := h.Launch(spec); err != nil {
				errs <- fmt.Errorf("launch farm-%d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if infos, err := hc.Runtimes(); err != nil || len(infos) != nRuntimes {
		t.Fatalf("listing after farm launch: %d runtimes, err %v", len(infos), err)
	}

	// Exercise every runtime concurrently. Runtimes whose index is
	// divisible by 3 stay breakpoint-free — their clients assert stop
	// silence, which is the isolation half of the check (a stop leaking
	// across runtimes would land exactly there).
	errs = make(chan error, nRuntimes*4)
	for i := 0; i < nRuntimes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("farm-%d", i)
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("%s: %s", id, fmt.Sprintf(format, args...))
			}
			ctrl, err := hc.Attach(id)
			if err != nil {
				fail("attach controller: %v", err)
				return
			}
			defer ctrl.Close()
			ev, err := ctrl.WaitEvent("welcome", 10*time.Second)
			if err != nil {
				fail("welcome: %v", err)
				return
			}
			if ev.Runtime != id {
				fail("controller routed to %q", ev.Runtime)
				return
			}
			var observers []*client.Client
			for o := 0; o < nObservers; o++ {
				obs, err := hc.Attach(id)
				if err != nil {
					fail("attach observer: %v", err)
					return
				}
				defer obs.Close()
				if ev, err := obs.WaitEvent("welcome", 10*time.Second); err != nil || ev.Runtime != id {
					fail("observer welcome (runtime %q): %v", ev.Runtime, err)
					return
				}
				observers = append(observers, obs)
			}

			if i%3 == 0 {
				// No breakpoints here: any stop is a cross-runtime leak.
				if _, err := ctrl.WaitStop(500 * time.Millisecond); err == nil {
					fail("received a stop with no breakpoints armed")
				}
				return
			}
			file, line := discoverLine(t, ctrl)
			if _, err := ctrl.AddBreakpoint(file, line, ""); err != nil {
				fail("add breakpoint: %v", err)
				return
			}
			for round := 0; round < 3; round++ {
				if _, err := ctrl.WaitStop(15 * time.Second); err != nil {
					fail("round %d stop: %v", round, err)
					return
				}
				for _, obs := range observers {
					if _, err := obs.GetValue("Counter.count"); err != nil {
						fail("round %d observer read: %v", round, err)
						return
					}
				}
				if err := ctrl.Command("continue"); err != nil {
					fail("round %d continue: %v", round, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Concurrent half-farm eviction: evict every even runtime while a
	// client on each odd runtime keeps round-tripping.
	survivors := make([]*client.Client, 0, nRuntimes/2)
	for i := 1; i < nRuntimes; i += 2 {
		cl, err := hc.Attach(fmt.Sprintf("farm-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		survivors = append(survivors, cl)
	}
	errs = make(chan error, nRuntimes)
	for i := 0; i < nRuntimes; i += 2 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := hc.Evict(fmt.Sprintf("farm-%d", i)); err != nil {
				errs <- err
			}
		}(i)
	}
	stopWatch := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			for _, cl := range survivors {
				if _, err := cl.ListBreakpoints(); err != nil {
					errs <- fmt.Errorf("survivor wobbled during eviction: %w", err)
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(stopWatch)
	<-watcherDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	infos, err := hc.Runtimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != nRuntimes/2 {
		t.Fatalf("%d runtimes after half-farm eviction, want %d", len(infos), nRuntimes/2)
	}
	for _, info := range infos {
		if info.State != proto.RuntimeServing {
			t.Fatalf("survivor %s in state %s", info.ID, info.State)
		}
	}
}

// TestHubChurn pounds launch/evict cycles from several goroutines —
// the registry must neither leak entries nor wedge, and the shared
// symtab cache must end balanced.
func TestHubChurn(t *testing.T) {
	h, addr := startHub(t)
	vcdPath, symtabPath := replayFixture(t, t.TempDir())
	hc, err := client.DialHub(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	const workers = 4
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("churn-%d-%d", w, r)
				spec := proto.RuntimeSpec{Name: id, Kind: "sim", Design: "counter"}
				if (w+r)%2 == 1 {
					spec = proto.RuntimeSpec{Name: id, Kind: "replay", VCD: vcdPath, Symtab: symtabPath}
				}
				if _, err := h.Launch(spec); err != nil {
					errs <- err
					return
				}
				cl, err := hc.Attach(id)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				if _, err := cl.WaitEvent("welcome", 10*time.Second); err != nil {
					cl.Close()
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err = h.Evict(ctx, id)
				cancel()
				if err != nil {
					cl.Close()
					errs <- fmt.Errorf("evict %s: %w", id, err)
					return
				}
				if _, err := cl.WaitEvent("goodbye", 5*time.Second); err != nil {
					cl.Close()
					errs <- fmt.Errorf("%s goodbye: %w", id, err)
					return
				}
				cl.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if infos := h.List(); len(infos) != 0 {
		t.Fatalf("registry leaked %d entries after churn", len(infos))
	}
	if st := h.SymtabStats(); st.Live != 0 {
		t.Fatalf("symtab refs leaked after churn: %+v", st)
	}
}

func TestHubControlSessionErrors(t *testing.T) {
	_, addr := startHub(t)
	hc, err := client.DialHub(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	if _, err := hc.Launch(proto.RuntimeSpec{Kind: "warp"}); err == nil {
		t.Fatal("bogus kind launched")
	}
	if _, err := hc.Launch(proto.RuntimeSpec{Kind: "replay"}); err == nil {
		t.Fatal("replay without paths launched")
	}
	if _, err := hc.Launch(proto.RuntimeSpec{Kind: "sim", Design: "nonesuch"}); err == nil {
		t.Fatal("unknown design launched")
	}
	if err := hc.Evict("ghost"); err == nil {
		t.Fatal("evicted a runtime that never existed")
	}
	// Duplicate names are rejected, first wins.
	if _, err := hc.Launch(proto.RuntimeSpec{Name: "dup", Kind: "sim"}); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Launch(proto.RuntimeSpec{Name: "dup", Kind: "sim"}); err == nil {
		t.Fatal("duplicate name launched")
	}
	// A hub control session rejects runtime-scoped requests with a hint.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.ListBreakpoints(); err == nil {
		t.Fatal("runtime request served on a control session")
	}
	// Launching without a name generates one.
	info, err := hc.Launch(proto.RuntimeSpec{Kind: "sim", Design: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" {
		t.Fatal("generated id empty")
	}
}

// TestHubDialHubRefusesStandalone pins the handshake: a standalone
// runtime server greets with "welcome", so DialHub — which insists on
// "hub-welcome" — must refuse it.
func TestHubDialHubRefusesStandalone(t *testing.T) {
	b, err := buildSim(proto.RuntimeSpec{Kind: "sim", Design: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b.rt, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if hc, err := client.DialHub(addr); err == nil {
		hc.Close()
		t.Fatal("DialHub accepted a standalone runtime server")
	}
}
