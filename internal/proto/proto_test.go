package proto

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestOKResponse(t *testing.T) {
	resp, err := OK("42", map[string]int{"x": 7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Token != "42" {
		t.Fatalf("resp = %+v", resp)
	}
	var data map[string]int
	if err := json.Unmarshal(resp.Data, &data); err != nil || data["x"] != 7 {
		t.Fatalf("data = %v, %v", data, err)
	}
	// Nil payload allowed.
	resp2, err := OK("1", nil)
	if err != nil || len(resp2.Data) != 0 {
		t.Fatalf("nil payload: %+v, %v", resp2, err)
	}
}

func TestErrorResponse(t *testing.T) {
	resp := Error("7", "bad %s: %d", "thing", 3)
	if resp.Status != "error" || resp.Reason != "bad thing: 3" || resp.Token != "7" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestParseCommand(t *testing.T) {
	cases := map[string]core.Command{
		"continue":         core.CmdContinue,
		"step":             core.CmdStep,
		"reverse-step":     core.CmdReverseStep,
		"reverse-continue": core.CmdReverseContinue,
		"detach":           core.CmdDetach,
	}
	for s, want := range cases {
		got, err := ParseCommand(s)
		if err != nil || got != want {
			t.Errorf("ParseCommand(%q) = %v, %v", s, got, err)
		}
		if back := CommandString(got); back != s {
			t.Errorf("CommandString(ParseCommand(%q)) = %q", s, back)
		}
	}
	if _, err := ParseCommand("warp"); err == nil {
		t.Fatal("unknown command parsed")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := Request{
		Type: "breakpoint", Action: "add", Token: "9",
		Filename: "core.go", Line: 42, Condition: "x == 1",
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Fatalf("round trip: %+v != %+v", back, req)
	}
	// Omitted fields stay off the wire.
	if strings.Contains(string(raw), "instance") {
		t.Fatalf("empty fields serialized: %s", raw)
	}
}

func TestEventWithStop(t *testing.T) {
	ev := Event{Type: "stop", Stop: &core.StopEvent{
		Time: 5, File: "a.go", Line: 10,
		Threads: []core.Thread{{Instance: "Top.u0", Locals: []core.Variable{
			{Name: "x", Value: 3, Width: 8},
		}}},
	}}
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stop == nil || back.Stop.Threads[0].Locals[0].Value != 3 {
		t.Fatalf("stop round trip: %+v", back.Stop)
	}
}
