package hub

import (
	"context"
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fpu"
	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/proto"
	"repro/internal/replay"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/vcd"
	"repro/internal/vpi"
)

// built is everything a launcher hands back to the registry.
type built struct {
	rt *core.Runtime
	// drive runs the simulation (or replay) through rt.Drive until ctx
	// is cancelled: unpaced while an edge can stop, parked while none
	// can (no session attached, or nothing armed), and held at the last
	// cycle of a trace. It may block inside a breakpoint stop; eviction
	// resumes parked stops before waiting on it.
	drive func(context.Context)
	// cleanup releases backend resources (trace store, shared symbol
	// table) after the drive goroutine has exited. May be nil.
	cleanup func()
	source  string
	shared  bool // symbol table was a shared-cache hit
	reverse bool // backend supports SetTime (reverse execution)
}

// buildRuntime constructs the backend a RuntimeSpec describes.
func buildRuntime(spec proto.RuntimeSpec, cache *symtab.Cache) (*built, error) {
	if spec.Kind == "replay" {
		return buildReplay(spec, cache)
	}
	return buildSim(spec)
}

// buildSim compiles one of the packaged designs and wires a live
// simulator behind it — the in-process equivalent of cmd/hgdb-sim.
func buildSim(spec proto.RuntimeSpec) (*built, error) {
	circ, start, err := buildDesign(spec.Design)
	if err != nil {
		return nil, err
	}
	comp, err := passes.Compile(circ, spec.Debug)
	if err != nil {
		return nil, fmt.Errorf("hub: compile %s: %w", spec.Design, err)
	}
	table, err := symtab.Build(comp)
	if err != nil {
		return nil, fmt.Errorf("hub: symtab %s: %w", spec.Design, err)
	}
	nl, err := rtl.Elaborate(comp.Circuit)
	if err != nil {
		return nil, fmt.Errorf("hub: elaborate %s: %w", spec.Design, err)
	}
	s := sim.New(nl)
	rt, err := core.New(vpi.NewSimBackend(s), table)
	if err != nil {
		return nil, fmt.Errorf("hub: runtime %s: %w", spec.Design, err)
	}
	return &built{
		rt:     rt,
		drive:  func(ctx context.Context) { rt.Drive(ctx, start(s)) },
		source: spec.Design,
	}, nil
}

// buildReplay opens a recorded trace (pre-indexed store or raw VCD
// text) and loads its symbol table through the shared cache.
func buildReplay(spec proto.RuntimeSpec, cache *symtab.Cache) (*built, error) {
	if spec.VCD == "" || spec.Symtab == "" {
		return nil, fmt.Errorf("hub: replay runtimes need vcd and symtab paths")
	}
	store, err := vcd.OpenStoreFile(spec.VCD, vcd.OpenOptions{})
	if errors.Is(err, vcd.ErrNotStore) {
		f, ferr := os.Open(spec.VCD)
		if ferr != nil {
			return nil, fmt.Errorf("hub: %w", ferr)
		}
		store, err = vcd.ParseStore(f, vcd.StoreOptions{})
		f.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("hub: open trace %s: %w", spec.VCD, err)
	}

	table, release, shared, err := cache.Acquire(spec.Symtab)
	if err != nil {
		store.Close()
		return nil, err
	}

	eng := replay.NewStore(store)
	rt, err := core.New(eng, table)
	if err != nil {
		store.Close()
		release()
		return nil, fmt.Errorf("hub: runtime %s: %w", spec.VCD, err)
	}
	return &built{
		rt:    rt,
		drive: func(ctx context.Context) { rt.Drive(ctx, eng.StepForward) },
		cleanup: func() {
			store.Close()
			release()
		},
		source:  spec.VCD,
		shared:  shared,
		reverse: true,
	}, nil
}

// buildDesign returns the High-form circuit for a packaged design and
// its stimulus. start resets a simulator of the design and returns its
// step: one clock edge under the next input vector, for rt.Drive. The
// designs mirror cmd/hgdb-sim's, but the stimulus never runs out
// instead of stopping after a cycle count — a hub runtime lives as long
// as the registry keeps it.
func buildDesign(name string) (*ir.Circuit, func(*sim.Simulator) func() bool, error) {
	switch name {
	case "", "counter":
		c := generator.NewCircuit("Counter")
		m := c.NewModule("Counter")
		en := m.Input("en", ir.UIntType(1))
		out := m.Output("out", ir.UIntType(8))
		count := m.RegInit("count", ir.UIntType(8), m.Lit(0, 8))
		m.When(en, func() {
			count.Set(count.AddMod(m.Lit(1, 8)))
		})
		out.Set(count)
		circ, err := c.Build()
		return circ, func(s *sim.Simulator) func() bool {
			s.Reset("Counter.reset", 2)
			s.Poke("Counter.en", 1)
			return func() bool { s.Step(); return true }
		}, err
	case "fpu":
		circ, err := fpu.BuildCircuit(true) // carries the seeded §4.2 bug
		return circ, func(s *sim.Simulator) func() bool {
			vectors := []struct{ op, a, b uint64 }{
				{fpu.RmFLT, fpu.One, fpu.Two},
				{fpu.RmFEQ, fpu.One, fpu.One},
				{fpu.RmFEQ, fpu.QNaN, fpu.One}, // triggers the bug
				{fpu.RmFLE, fpu.NegOne, fpu.One},
			}
			s.Reset("FPToInt.reset", 2)
			i := 0
			return func() bool {
				v := vectors[i%len(vectors)]
				i++
				s.Poke("FPToInt.io_rm", v.op)
				s.Poke("FPToInt.io_in1", v.a)
				s.Poke("FPToInt.io_in2", v.b)
				s.Poke("FPToInt.io_wflags", 1)
				s.Step()
				return true
			}
		}, err
	}
	return nil, nil, fmt.Errorf("hub: unknown design %q (want counter or fpu)", name)
}
