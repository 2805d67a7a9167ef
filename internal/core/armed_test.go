package core

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/riscv"
	"repro/internal/val"
	"repro/internal/vpi"
)

// These tests pin how an armed expression resolves its names: once, at
// arm time, through the backend's handles (vpi Resolve), and through
// one chain for enable conditions, user conditions and watches.

// readCounter wraps the live backend, keeping every capability, and
// counts the value reads made by name.
type readCounter struct {
	*vpi.SimBackend
	reads atomic.Int64
}

func (c *readCounter) GetValue(p string) (eval.Value, error) {
	c.reads.Add(1)
	return c.SimBackend.GetValue(p)
}

func (c *readCounter) GetBits(p string) (val.Bits, error) {
	c.reads.Add(1)
	return c.SimBackend.GetBits(p)
}

// TestArmingReadsNoValue: attaching to the two-core SoC, arming every
// statement with and without a user condition, adding a watch and
// resolving the dependency union read no signal value. Existence is
// asked of the backend's handles; a value read at arm time would probe
// one name per enable dependency.
func TestArmingReadsNoValue(t *testing.T) {
	m, err := riscv.NewMachine(2, false)
	if err != nil {
		t.Fatal(err)
	}
	be := &readCounter{SimBackend: vpi.NewSimBackend(m.Sim)}
	rt, err := New(be, m.Table)
	if err != nil {
		t.Fatal(err)
	}
	enableNames := 0
	for _, bp := range m.Table.AllBreakpoints() {
		if bp.Enable == "" {
			continue
		}
		_, p, err := expr.ParseCompile(bp.Enable)
		if err != nil {
			t.Fatal(err)
		}
		enableNames += len(p.Deps)
	}
	if enableNames == 0 {
		t.Fatal("no breakpoint of the SoC has an enable dependency; test is vacuous")
	}
	armed := 0
	for _, f := range m.Table.Files() {
		for i, line := range m.Table.Lines(f) {
			// Every other line carries a user condition naming a
			// source-level variable and an absolute path.
			cond := ""
			if i%2 == 1 {
				cond = "pc != 3 || SoC.core1.pc == 0xfffc"
			}
			ids, err := rt.AddBreakpoint(f, line, cond)
			if err != nil {
				t.Fatal(err)
			}
			armed += len(ids)
		}
	}
	if _, err := rt.AddWatch("SoC.core0", "pc"); err != nil {
		t.Fatal(err)
	}
	rt.syncDeps()
	if n := be.reads.Load(); n != 0 {
		t.Fatalf("attaching, arming %d breakpoints and a watch read %d values, want 0", armed, n)
	}
	if len(rt.depUnion) == 0 {
		t.Fatal("empty dependency union: nothing was resolved")
	}
	t.Logf("%d breakpoints armed (%d enable dependencies), %d union slots, 0 value reads",
		armed, enableNames, len(rt.depUnion))
}

// TestEnableNamesResolveThroughSourceChain: a user condition naming a
// signal its statement's enable condition reads resolves that name
// through the source-level chain, the enable through the instance's
// RTL names. On the SoC, optimized and debug, the two agree on every
// enable name, so a user condition repeating its statement's enable
// reads exactly the signals the enable does.
func TestEnableNamesResolveThroughSourceChain(t *testing.T) {
	for _, debug := range []bool{false, true} {
		m, err := riscv.NewMachine(2, debug)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(vpi.NewSimBackend(m.Sim), m.Table)
		if err != nil {
			t.Fatal(err)
		}
		names := 0
		for _, bp := range m.Table.AllBreakpoints() {
			if bp.Enable == "" {
				continue
			}
			ibp, err := rt.prepare(bp, bp.Enable)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ibp.cond.paths, ibp.enable.paths) {
				t.Errorf("debug=%v: %s:%d in %s: enable %q reads %v, the same user condition %v",
					debug, bp.Filename, bp.Line, bp.InstanceName, bp.Enable, ibp.enable.paths, ibp.cond.paths)
			}
			names += len(ibp.enable.paths)
		}
		if names == 0 {
			t.Fatalf("debug=%v: no enable dependency; test is vacuous", debug)
		}
		t.Logf("debug=%v: %d enable names resolve identically through both chains", debug, names)
	}
}

// TestAbsoluteConditionFuses: a user condition written as an absolute
// simulator path resolves through the chain's last link, so it runs on
// the fused program rather than on the general evaluator, and stops
// exactly as the exhaustive reference does.
func TestAbsoluteConditionFuses(t *testing.T) {
	absolute := [2]string{"Counter.count == 3", "Counter.count == 5"}
	exhaustive, _ := runCounterScenario(t, true, absolute)
	fused, rt := runCounterScenario(t, false, absolute)
	if len(exhaustive) == 0 {
		t.Fatal("scenario produced no stops; test is vacuous")
	}
	if !slices.Equal(fused, exhaustive) {
		t.Fatalf("stops differ:\nfused:      %+v\nexhaustive: %+v", fused, exhaustive)
	}
	// Both breakpoints and the scenario's watch fuse; nothing is left
	// to the general evaluator.
	stats, ok := rt.FuseInfo()
	if !ok || stats.Conds != 3 || rt.fused.extras != 0 {
		t.Fatalf("FuseInfo = %+v (ok %v), %d extras: want 3 fused conditions and none extra",
			stats, ok, rt.fused.extras)
	}
}
