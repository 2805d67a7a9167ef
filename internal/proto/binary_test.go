package proto

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// binNormalize round-trips an event through JSON so both sides of a
// binary round-trip comparison share the same nil-vs-empty slice
// conventions (the binary decoder, like the JSON one, yields nil for
// empty lists).
func binNormalize(t *testing.T, ev *Event) *Event {
	t.Helper()
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stop != nil {
		canonStop(out.Stop)
	}
	return &out
}

func TestBinaryRoundTripStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		ev := &Event{
			Type: "stop",
			Seq:  uint64(i + 1),
			Emit: int64(1_700_000_000_000_000_000 + i),
			Stop: randStop(rng, uint64(100+i)),
		}
		frame := EncodeBinaryEvent(ev)
		dec, err := DecodeBinaryFrame(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want, got := binNormalize(t, ev), binNormalize(t, dec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestBinaryRoundTripWidestSignal sends a stop holding a four-state
// variable as wide as a trace store accepts, 2^20 bits: the decoder's
// plane cap must admit every value the replay backend can return, or a
// binary session drops the frame and never sees the stop. A plane one
// word past the cap is still refused.
func TestBinaryRoundTripWidestSignal(t *testing.T) {
	const width = 1 << 20
	hi := make([]uint64, width/64-1)
	xhi := make([]uint64, len(hi))
	for i := range hi {
		hi[i] = uint64(i) * 0x9E3779B97F4A7C15
		xhi[i] = uint64(i%3) << 62
	}
	bus := core.Variable{Name: "bus", RTL: "Top.bus", Value: 1, X: 2, Hi: hi, XHi: xhi, Width: width}
	ev := &Event{Type: "stop", Seq: 1, Stop: &core.StopEvent{
		Time: 7, File: "a.go", Line: 3,
		Threads: []core.Thread{{BreakpointID: 1, Instance: "Top", Locals: []core.Variable{bus}}},
	}}
	dec, err := DecodeBinaryFrame(EncodeBinaryEvent(ev))
	if err != nil {
		t.Fatalf("decode of a %d-bit variable: %v", width, err)
	}
	if want, got := binNormalize(t, ev), binNormalize(t, dec); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d-bit variable did not round-trip", width)
	}

	ev.Stop.Threads[0].Locals[0].Hi = make([]uint64, maxBinWords+1)
	if _, err := DecodeBinaryFrame(EncodeBinaryEvent(ev)); err == nil {
		t.Fatalf("decode accepted a plane of %d words, past the %d-word cap", maxBinWords+1, maxBinWords)
	}
}

func TestBinaryRoundTripDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		base := randStop(rng, uint64(10+i))
		next := mutateStop(rng, base)
		ev := &Event{
			Type:  "stop",
			Seq:   uint64(i + 2),
			Emit:  12345,
			Delta: DiffStop(uint64(i+1), base, next),
		}
		frame := EncodeBinaryEvent(ev)
		dec, err := DecodeBinaryFrame(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want, got := binNormalize(t, ev), binNormalize(t, dec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestBinaryRoundTripGeneric(t *testing.T) {
	cases := []*Event{
		{Type: "welcome", Seq: 1, SessionID: 7, Role: RoleObserver,
			Controller: 3, Peers: 4, Top: "Top", Mode: "replay",
			Files: 12, Reverse: true},
		{Type: "attach", Seq: 9, SessionID: 8, Controller: 3, Peers: 5},
		{Type: "goodbye", Seq: 10, SessionID: 8, Controller: 3, Peers: 4},
		{Type: "control", Seq: 11, Controller: 8, Reason: "release"},
		{Type: "resume", Seq: 12, Emit: 999, Command: "step"},
	}
	for _, ev := range cases {
		frame := EncodeBinaryEvent(ev)
		dec, err := DecodeBinaryFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", ev.Type, err)
		}
		want, got := binNormalize(t, ev), binNormalize(t, dec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", ev.Type, got, want)
		}
	}
}

// TestBinaryDecodeRejects pins the defensive paths a fuzzer would find:
// truncation, bad header, hostile counts, trailing garbage.
func TestBinaryDecodeRejects(t *testing.T) {
	good := EncodeBinaryEvent(&Event{Type: "stop", Seq: 3, Stop: &core.StopEvent{
		Time: 9, File: "a.go", Line: 4,
		Threads: []core.Thread{{BreakpointID: 1, Instance: "Top",
			Locals: []core.Variable{{Name: "x", RTL: "Top.x", Value: 1, Width: 8}}}},
	}})

	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short", []byte{binMagic, binVersion}},
		{"bad magic", append([]byte{0x00}, good[1:]...)},
		{"bad version", append([]byte{binMagic, 0x7F}, good[2:]...)},
		{"bad kind", append([]byte{binMagic, binVersion, 0x7F}, good[3:]...)},
		{"truncated body", good[:len(good)-3]},
		{"trailing garbage", append(append([]byte{}, good...), 0xFF)},
		// kindStop with a huge thread count and no bytes to back it.
		{"hostile count", []byte{binMagic, binVersion, kindStop,
			1, 0, 5, 0, // seq, emit, time, file=""
			1, 0, 0, // line, col, flags
			0,                            // watch count
			0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // thread count ~ 2^34
		}},
		// generic frame claiming type "stop" (must use kindStop).
		{"generic stop", EncodeBinaryEvent(&Event{Type: "stop"})},
	}
	for _, tc := range cases {
		if _, err := DecodeBinaryFrame(tc.frame); err == nil {
			t.Errorf("%s: decode succeeded on malformed frame", tc.name)
		}
	}

	// Every truncation of a valid frame must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeBinaryFrame(good[:cut]); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
}

// FuzzDecodeBinaryFrame hammers the attacker-facing decoder. Seeds are
// realistic frames of every kind — the same shapes the load harness
// captures from live broadcast traffic — so the fuzzer starts from
// structurally valid inputs and mutates toward the edge cases.
func FuzzDecodeBinaryFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	// Full stops of assorted sizes.
	for i := 0; i < 4; i++ {
		f.Add(EncodeBinaryEvent(&Event{
			Type: "stop", Seq: uint64(i + 1), Emit: int64(i) * 1e9,
			Stop: randStop(rng, uint64(50*i)),
		}))
	}
	// Deltas, including full-thread fallbacks.
	for i := 0; i < 4; i++ {
		base := randStop(rng, uint64(10*i))
		f.Add(EncodeBinaryEvent(&Event{
			Type: "stop", Seq: uint64(i + 10), Emit: 77,
			Delta: DiffStop(uint64(i+9), base, mutateStop(rng, base)),
		}))
	}
	// Generic lifecycle events.
	f.Add(EncodeBinaryEvent(&Event{Type: "welcome", Seq: 1, SessionID: 2,
		Role: RoleController, Top: "Top", Mode: "live", Files: 3}))
	f.Add(EncodeBinaryEvent(&Event{Type: "resume", Seq: 4, Command: "continue"}))
	f.Add(EncodeBinaryEvent(&Event{Type: "goodbye", Seq: 5, SessionID: 9, Peers: 1}))
	// Hub frames (binary v3): the control-session greeting with the
	// registry size, and runtime-routed lifecycle events carrying the
	// registry id of the runtime the session is attached to.
	f.Add(EncodeBinaryEvent(&Event{Type: "hub-welcome", Seq: 1, Runtimes: 24}))
	f.Add(EncodeBinaryEvent(&Event{Type: "welcome", Seq: 1, SessionID: 3,
		Role: RoleObserver, Top: "Counter", Mode: "replay", Files: 2, Runtime: "rt-7"}))
	f.Add(EncodeBinaryEvent(&Event{Type: "goodbye", Seq: 8, SessionID: 3,
		Reason: "shutdown", Runtime: "rt-7"}))
	// Four-state / wide payloads — the v2 flag-byte encodings: low-word
	// x planes, >64-bit values with and without x planes, rendered
	// watch-hit displays.
	f.Add(EncodeBinaryEvent(&Event{Type: "stop", Seq: 20, Emit: 3, Stop: &core.StopEvent{
		Time: 40, File: "wide.go", Line: 7,
		Threads: []core.Thread{{BreakpointID: 2, Instance: "Top",
			Locals: []core.Variable{
				{Name: "st", RTL: "Top.st", Value: 0b100, X: 0b010, Width: 8},
				{Name: "bus", RTL: "Top.bus", Value: 1, Hi: []uint64{0xdead, 1}, Width: 130},
				{Name: "bx", RTL: "Top.bx", X: 1, Hi: []uint64{5}, XHi: []uint64{1 << 63}, Width: 128},
			}}},
		Watch: []core.WatchHit{{ID: 1, Expr: "st", Old: 4, New: 6,
			OldDisplay: "8'b0000001x", NewDisplay: "8'b00000110"}},
	}}))
	{
		base := randStop(rng, 200)
		next := mutateStop(rng, base)
		if len(next.Threads) > 0 && len(next.Threads[0].Locals) > 0 {
			next.Threads[0].Locals[0].X = 0xF0 // force a plane patch
		}
		f.Add(EncodeBinaryEvent(&Event{Type: "stop", Seq: 21, Emit: 4,
			Delta: DiffStop(20, base, next)}))
	}
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{binMagic, binVersion, kindStop})

	f.Fuzz(func(t *testing.T, frame []byte) {
		ev, err := DecodeBinaryFrame(frame)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode to the same
		// event (the codec is canonical for decoded values).
		frame2 := EncodeBinaryEvent(ev)
		ev2, err := DecodeBinaryFrame(frame2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		raw1, _ := json.Marshal(ev)
		raw2, _ := json.Marshal(ev2)
		if string(raw1) != string(raw2) {
			t.Fatalf("re-encode not canonical:\n first %s\nsecond %s", raw1, raw2)
		}
	})
}
