package core_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/riscv"
	"repro/internal/vpi"
)

// BenchmarkStopPath prices the layers one stop crosses on its way to an
// editor, on the widest frame of the one-core SoC: the core0 statement
// with the most scope variables (62 locals, plus the instance's 66
// generator variables), stopped a few cycles into vvadd.
//
//   - buildEvent: the frame read through its warm plan.
//   - json: json.Marshal of the broadcast event, then the JSON client's
//     two decodes (the type peek, then the event).
//   - binary: EncodeBinaryEvent plus DecodeBinaryFrame, the wire of the
//     DAP adapter's session.
//   - structure: core.Structure of both variable lists, as a DAP scopes
//     request builds them.
//
// Run: go test -run xxx -bench StopPath -benchmem ./internal/core
func BenchmarkStopPath(b *testing.B) {
	m, err := riscv.NewMachine(1, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range riscv.Workloads() {
		if w.Name == "vvadd" {
			if err := m.Load(0, w.Prog); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := m.Reset(); err != nil {
		b.Fatal(err)
	}
	m.Sim.Run(60)
	rt, err := core.New(vpi.NewSimBackend(m.Sim), m.Table)
	if err != nil {
		b.Fatal(err)
	}
	var widest int64
	most := -1
	for _, bp := range m.Table.AllBreakpoints() {
		if n := len(m.Table.ScopeVars(bp.ID)); bp.InstanceName == "SoC.core0" && n > most {
			widest, most = bp.ID, n
		}
	}
	build := rt.StopBuilder(widest)
	if build == nil {
		b.Fatal("no SoC.core0 statement")
	}
	stop := build() // plans the frame
	th := stop.Threads[0]
	vars := float64(len(th.Locals) + len(th.Generator))
	ev := &proto.Event{Type: "stop", Seq: 1, Emit: 1, Stop: stop}

	b.Run("buildEvent", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			build()
		}
		b.ReportMetric(vars, "vars")
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var raw []byte
		for b.Loop() {
			raw, err = json.Marshal(ev)
			if err != nil {
				b.Fatal(err)
			}
			var head struct {
				Type  string `json:"type"`
				Token string `json:"token"`
			}
			var out proto.Event
			if json.Unmarshal(raw, &head) != nil || json.Unmarshal(raw, &out) != nil || out.Stop == nil {
				b.Fatal("json stop did not round-trip")
			}
		}
		b.ReportMetric(float64(len(raw)), "bytes")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var raw []byte
		for b.Loop() {
			raw = proto.EncodeBinaryEvent(ev)
			out, err := proto.DecodeBinaryFrame(raw)
			if err != nil || out.Stop == nil {
				b.Fatalf("binary stop did not round-trip: %v", err)
			}
		}
		b.ReportMetric(float64(len(raw)), "bytes")
	})
	b.Run("structure", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			core.Structure(th.Locals)
			core.Structure(th.Generator)
		}
	})
}
