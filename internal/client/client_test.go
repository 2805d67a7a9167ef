package client

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/ws"
)

// The read loop decodes each text frame once and routes it on its
// type. These tests drive a Client against a scripted peer: the test
// plays the server end of the ws connection, reads the client's
// requests and writes the frames a server would.

const waitFor = 5 * time.Second

// startPeer attaches a client with opts to a scripted server end.
func startPeer(t *testing.T, opts Options) (*Client, *ws.Conn) {
	t.Helper()
	conns := make(chan *ws.Conn, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := ws.Upgrade(w, r)
		if err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		conns <- conn
	}))
	t.Cleanup(hs.Close)
	c, err := DialOpts(strings.TrimPrefix(hs.URL, "http://"), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-conns
	// The peer closes first: the client's read loop answers its close
	// frame, so neither side waits out a close timeout.
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

// sendJSON writes v to the client as one text frame.
func sendJSON(t *testing.T, srv *ws.Conn, v any) {
	t.Helper()
	msg, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WriteText(msg); err != nil {
		t.Fatal(err)
	}
}

// readRequest reads the client's next request.
func readRequest(t *testing.T, srv *ws.Conn) *proto.Request {
	t.Helper()
	raw, err := srv.ReadText()
	if err != nil {
		t.Fatal(err)
	}
	req, err := proto.DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestResponseReachesWaiterByToken(t *testing.T) {
	c, srv := startPeer(t, Options{})
	type result struct {
		resp *proto.Response
		err  error
	}
	results := make([]chan result, 2)
	for i, topic := range []string{"files", "status"} {
		results[i] = make(chan result, 1)
		go func() {
			resp, err := c.roundTrip(&proto.Request{Type: "info", Topic: topic})
			results[i] <- result{resp, err}
		}()
		// Serialize the sends so the first request holds the first token.
		req := readRequest(t, srv)
		if req.Topic != topic {
			t.Fatalf("request %d topic = %q, want %q", i, req.Topic, topic)
		}
	}
	// Answer in reverse order: each reply must find its own waiter.
	sendJSON(t, srv, proto.Response{Type: "response", Token: "2", Status: "ok",
		Reason: "second", Data: json.RawMessage(`{"time":12}`)})
	sendJSON(t, srv, proto.Response{Type: "response", Token: "1", Status: "ok",
		Reason: "first", Data: json.RawMessage(`["a.go","b.go"]`)})
	for i, want := range []proto.Response{
		{Type: "response", Token: "1", Status: "ok", Reason: "first", Data: json.RawMessage(`["a.go","b.go"]`)},
		{Type: "response", Token: "2", Status: "ok", Reason: "second", Data: json.RawMessage(`{"time":12}`)},
	} {
		select {
		case r := <-results[i]:
			if r.err != nil {
				t.Fatalf("request %d: %v", i, r.err)
			}
			if !reflect.DeepEqual(*r.resp, want) {
				t.Fatalf("request %d response = %+v, want %+v", i, *r.resp, want)
			}
		case <-time.After(waitFor):
			t.Fatalf("request %d: no response", i)
		}
	}
}

func TestErrorResponseReasonIsError(t *testing.T) {
	c, srv := startPeer(t, Options{})
	errs := make(chan error, 1)
	go func() { errs <- c.Command("continue") }()
	req := readRequest(t, srv)
	if req.Type != "command" || req.Command != "continue" {
		t.Fatalf("request = %+v", req)
	}
	sendJSON(t, srv, proto.Error(req.Token, "control required (held by session %d)", 1))
	select {
	case err := <-errs:
		if err == nil || err.Error() != "hgdb: control required (held by session 1)" {
			t.Fatalf("Command error = %v", err)
		}
	case <-time.After(waitFor):
		t.Fatal("no response")
	}
}

func TestEventsKeepTheirFields(t *testing.T) {
	c, srv := startPeer(t, Options{})
	sendJSON(t, srv, proto.Event{Type: "welcome", SessionID: 3, Role: proto.RoleController, Controller: 3})
	if _, err := c.WaitEvent("welcome", waitFor); err != nil {
		t.Fatal(err)
	}
	// A goodbye shares "reason" with responses and "session" with the
	// welcome; both must survive the single decode.
	sendJSON(t, srv, proto.Event{Type: "goodbye", SessionID: 4, Controller: 2, Peers: 1, Reason: "disconnect"})
	ev, err := c.WaitEvent("goodbye", waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Reason != "disconnect" || ev.SessionID != 4 || ev.Controller != 2 || ev.Peers != 1 {
		t.Fatalf("goodbye = %+v", ev)
	}
	if c.Controller() != 2 || c.Role() != proto.RoleObserver {
		t.Fatalf("after goodbye: controller %d, role %q", c.Controller(), c.Role())
	}

	stop := &core.StopEvent{Time: 17, File: "adder.go", Line: 41, Col: 5,
		Threads: []core.Thread{{BreakpointID: 1, Instance: "Top.adder",
			Locals: []core.Variable{{Name: "sum", Value: 9, Width: 8, RTL: "Top.adder.sum"}}}}}
	sendJSON(t, srv, proto.Event{Type: "stop", Seq: 9, Emit: 123, Stop: stop})
	ev, err = c.WaitEvent("stop", waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 9 || ev.Emit != 123 || !reflect.DeepEqual(ev.Stop, stop) {
		t.Fatalf("stop = seq %d emit %d %+v, want seq 9 emit 123 %+v", ev.Seq, ev.Emit, ev.Stop, stop)
	}
}

func TestMalformedTextFrameSkipped(t *testing.T) {
	c, srv := startPeer(t, Options{})
	sub := c.Subscribe(8)
	defer sub.Close()
	for _, bad := range []string{`{"type":`, `not json`, `{"type":"stop","seq":"nine"}`} {
		if err := srv.WriteText([]byte(bad)); err != nil {
			t.Fatal(err)
		}
	}
	sendJSON(t, srv, proto.Event{Type: "resume", Command: "continue"})
	select {
	case ev := <-sub.C:
		if ev.Type != "resume" || ev.Command != "continue" {
			t.Fatalf("first event after malformed frames = %+v, want the resume", ev)
		}
	case <-time.After(waitFor):
		t.Fatal("read loop stopped at a malformed frame")
	}
}

func TestBinaryFramesDecoded(t *testing.T) {
	c, srv := startPeer(t, Options{Binary: true})
	stop := &core.StopEvent{Time: 5, File: "counter.go", Line: 130, Col: 3,
		Threads: []core.Thread{{BreakpointID: 1, Instance: "Counter",
			Locals: []core.Variable{{Name: "count", Value: 4, Width: 16}}}}}
	if err := srv.WriteBinary(proto.EncodeBinaryEvent(&proto.Event{Type: "stop", Seq: 2, Stop: stop})); err != nil {
		t.Fatal(err)
	}
	// A corrupt binary frame is skipped like a malformed text one.
	if err := srv.WriteBinary([]byte{0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := srv.WriteBinary(proto.EncodeBinaryEvent(&proto.Event{Type: "resume", Command: "step"})); err != nil {
		t.Fatal(err)
	}
	ev, err := c.WaitEvent("stop", waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || !reflect.DeepEqual(ev.Stop, stop) {
		t.Fatalf("binary stop = seq %d %+v, want seq 2 %+v", ev.Seq, ev.Stop, stop)
	}
	ev, err = c.WaitEvent("resume", waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Command != "step" {
		t.Fatalf("binary resume = %+v", ev)
	}
}
