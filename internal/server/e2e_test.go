package server

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/ws"
)

// This file is the end-to-end protocol harness for multi-client debug
// sessions: a real runtime behind a real listener, several clients
// attached through internal/client, scripted breakpoints, and
// assertions over broadcast ordering, control arbitration, observer
// reads mid-run, and teardown. CI runs the whole package under -race;
// these tests are the reason.

// collectStop waits for the next stop event on a client and returns
// the full proto event (with its broadcast sequence number).
func collectStop(t *testing.T, cl *client.Client) *proto.Event {
	t.Helper()
	ev, err := cl.WaitEvent("stop", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestMultiClientSession is the acceptance scenario: three clients on
// one runtime — every session receives the same broadcast stops in
// the same order, only the controller can resume or mutate, observers
// read state mid-run, and control hands off on release.
func TestMultiClientSession(t *testing.T) {
	addr, s, incLine := startServerAddr(t)
	ctrl := dialClient(t, addr)
	obs1 := dialClient(t, addr)
	obs2 := dialClient(t, addr)

	// --- Arbitration: first attach owns control. ---
	if ctrl.Role() != proto.RoleController {
		t.Fatalf("first client role = %q", ctrl.Role())
	}
	for i, obs := range []*client.Client{obs1, obs2} {
		if obs.Role() != proto.RoleObserver {
			t.Fatalf("observer %d role = %q", i, obs.Role())
		}
		if obs.Controller() != ctrl.SessionID() {
			t.Fatalf("observer %d sees controller %d, want %d", i, obs.Controller(), ctrl.SessionID())
		}
	}
	infos, err := ctrl.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Role != proto.RoleController ||
		infos[1].Role != proto.RoleObserver || infos[2].Role != proto.RoleObserver {
		t.Fatalf("session list = %+v", infos)
	}

	// --- Only the controller mutates. ---
	if _, err := obs1.AddBreakpoint("server_test.go", incLine, ""); err == nil {
		t.Fatal("observer armed a breakpoint")
	}
	if err := obs1.SetValue("Counter.count", 7); err == nil {
		t.Fatal("observer deposited a value")
	}
	if _, err := ctrl.AddBreakpoint("server_test.go", incLine, ""); err != nil {
		t.Fatalf("controller add breakpoint: %v", err)
	}

	// --- Broadcast: every session gets the same stops, same order. ---
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(3)
	}()
	const stops = 3
	seqs := make([][]uint64, 3)
	times := make([][]uint64, 3)
	for hit := 0; hit < stops; hit++ {
		for ci, cl := range []*client.Client{ctrl, obs1, obs2} {
			ev := collectStop(t, cl)
			if ev.Stop.File != "server_test.go" || ev.Stop.Line != incLine {
				t.Fatalf("client %d stop %d at %s:%d", ci, hit, ev.Stop.File, ev.Stop.Line)
			}
			seqs[ci] = append(seqs[ci], ev.Seq)
			times[ci] = append(times[ci], ev.Stop.Time)
		}
		// While stopped: observers may read, not resume.
		if hit == 0 {
			v, err := obs1.GetValue("Counter.count")
			if err != nil {
				t.Fatalf("observer get-value at stop: %v", err)
			}
			if v.Value != 0 {
				t.Fatalf("count at first stop = %d", v.Value)
			}
			if err := obs2.Command("continue"); err == nil {
				t.Fatal("observer resumed the simulation")
			}
		}
		if err := ctrl.Command("continue"); err != nil {
			t.Fatalf("controller continue %d: %v", hit, err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation did not finish")
	}
	for ci := 1; ci < 3; ci++ {
		for h := 0; h < stops; h++ {
			if seqs[ci][h] != seqs[0][h] || times[ci][h] != times[0][h] {
				t.Fatalf("client %d stop %d = (seq %d, t %d), client 0 saw (seq %d, t %d)",
					ci, h, seqs[ci][h], times[ci][h], seqs[0][h], times[0][h])
			}
		}
	}
	for ci := range seqs {
		for h := 1; h < stops; h++ {
			if seqs[ci][h] <= seqs[ci][h-1] {
				t.Fatalf("client %d saw non-increasing seqs %v", ci, seqs[ci])
			}
		}
	}

	// --- Observer reads while the simulation is running. ---
	if _, err := ctrl.RemoveBreakpoint("server_test.go", incLine); err != nil {
		t.Fatal(err)
	}
	var running atomic.Bool
	running.Store(true)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		for running.Load() {
			s.Run(1)
		}
	}()
	first, err := obs1.GetValue("Counter.count")
	if err != nil {
		t.Fatalf("observer get-value mid-run: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	second, err := obs2.Evaluate("Counter", "count + 256")
	if err != nil {
		t.Fatalf("observer evaluate mid-run: %v", err)
	}
	if second.Value < 256 {
		t.Fatalf("evaluate mid-run = %d, want >= 256", second.Value)
	}
	if second.Time <= first.Time {
		t.Fatalf("mid-run capture times did not advance: %d then %d", first.Time, second.Time)
	}
	if err := ctrl.SetValue("Counter.en", 0); err != nil {
		t.Fatalf("controller set-value mid-run: %v", err)
	}
	running.Store(false)
	select {
	case <-runDone:
	case <-time.After(5 * time.Second):
		t.Fatal("free-running simulation stuck")
	}

	// --- Release hands control to the oldest observer. ---
	if err := ctrl.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	ev, err := obs1.WaitEvent("control", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Controller != obs1.SessionID() || ev.Reason != "release" {
		t.Fatalf("control event = %+v (obs1 is %d)", ev, obs1.SessionID())
	}
	if _, err := ctrl.WaitEvent("control", 2*time.Second); err != nil {
		t.Fatalf("old controller missed the control broadcast: %v", err)
	}
	if ctrl.Role() != proto.RoleObserver || obs1.Role() != proto.RoleController {
		t.Fatalf("roles after release: old=%q new=%q", ctrl.Role(), obs1.Role())
	}
	if err := ctrl.SetValue("Counter.count", 1); err == nil {
		t.Fatal("released controller still mutates")
	}
	if err := obs1.SetValue("Counter.count", 1); err != nil {
		t.Fatalf("promoted controller cannot mutate: %v", err)
	}
}

// TestControllerDropDuringStopAutoContinues: the sole session drops
// while the simulation is blocked inside onStop. The runtime must
// auto-continue instead of deadlocking the simulator forever.
func TestControllerDropDuringStopAutoContinues(t *testing.T) {
	addr, s, incLine := startServerAddr(t)
	ctrl := dialClient(t, addr)
	if _, err := ctrl.AddBreakpoint("server_test.go", incLine, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(3)
	}()
	if _, err := ctrl.WaitStop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Drop the only commander mid-stop. Auto-continue must carry the
	// simulation through this and every later breakpoint hit.
	ctrl.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation deadlocked after controller disconnect during stop")
	}
}

// TestControllerDropDuringStopPromotesObserver: with an observer
// still attached, dropping the controller mid-stop hands control over
// instead of auto-continuing — the promoted session decides.
func TestControllerDropDuringStopPromotesObserver(t *testing.T) {
	addr, s, incLine := startServerAddr(t)
	ctrl := dialClient(t, addr)
	obs := dialClient(t, addr)
	if _, err := ctrl.AddBreakpoint("server_test.go", incLine, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(3)
	}()
	if _, err := ctrl.WaitStop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	parked, err := obs.WaitStop(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Close()
	ev, err := obs.WaitEvent("control", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Controller != obs.SessionID() || ev.Reason != "disconnect" {
		t.Fatalf("control event = %+v (observer is %d)", ev, obs.SessionID())
	}
	if obs.Role() != proto.RoleController {
		t.Fatalf("observer role after promotion = %q", obs.Role())
	}
	// The simulation must still be parked at the stop: continue (from
	// the promoted session) is what resumes it. If the server had
	// wrongly auto-continued, this command would fail with "not
	// stopped".
	if err := obs.Command("continue"); err != nil {
		t.Fatalf("promoted controller continue: %v", err)
	}
	resumeUntilDone(t, obs, parked.Time, done)
}

// resumeUntilDone continues every new stop from cl until the
// simulation goroutine closes done, failing if it has not after five
// seconds. A session promoted while the simulation is parked gets the
// parked stop replayed (its own copy could have been coalesced away),
// so a second copy of a stop it already handled may arrive; the
// breakpoint stops once per edge, so a stop at the handled time is that
// copy, not a new stop.
func resumeUntilDone(t *testing.T, cl *client.Client, handled uint64, done <-chan struct{}) {
	t.Helper()
	stuck := time.After(5 * time.Second)
	for {
		select {
		case <-done:
			return
		case <-stuck:
			t.Fatal("simulation stuck")
		default:
		}
		stop, err := cl.WaitStop(50 * time.Millisecond)
		if err != nil || stop.Time == handled {
			continue
		}
		handled = stop.Time
		if err := cl.Command("continue"); err != nil {
			t.Fatalf("continue at t=%d: %v", stop.Time, err)
		}
	}
}

// TestSlowObserverDoesNotBlockSimulation: an observer that never
// reads its socket must not stall the simulation — stop broadcasts
// drop at its queue instead of blocking the clock callback.
func TestSlowObserverDoesNotBlockSimulation(t *testing.T) {
	addr, s, incLine := startServerAddr(t)
	ctrl := dialClient(t, addr)
	// Raw connection that completes the handshake and then never
	// reads: the worst-behaved observer possible.
	wedged, err := ws.Dial("ws://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	if _, err := ctrl.WaitEvent("attach", 2*time.Second); err != nil {
		t.Fatalf("no attach broadcast for the wedged observer: %v", err)
	}
	if _, err := ctrl.AddBreakpoint("server_test.go", incLine, ""); err != nil {
		t.Fatal(err)
	}
	const cycles = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(cycles)
	}()
	for i := 0; i < cycles; i++ {
		if _, err := ctrl.WaitStop(5 * time.Second); err != nil {
			t.Fatalf("stop %d: %v", i, err)
		}
		if err := ctrl.Command("continue"); err != nil {
			t.Fatalf("continue %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("simulation blocked behind a wedged observer")
	}
}

// TestEventBackpressureCoalescePolicy pins the queue policy itself:
// with no writer draining, enqueues never block — sim-state events
// coalesce to the single newest one, peer events coalesce within
// their class once the queue is full, and drops happen only with
// nothing of the same class to supersede.
func TestEventBackpressureCoalescePolicy(t *testing.T) {
	sess := newSession(nil, nil, 1, proto.RoleObserver)
	const storm = 500
	start := time.Now()
	for i := 0; i < storm; i++ {
		if !sess.enqueue(outEntry{cls: classState, msg: []byte{byte(i)}}) {
			t.Fatal("sim-state enqueue failed (must always land)")
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("enqueue blocked for %s", elapsed)
	}
	if got := sess.coalesced.Load(); got != storm-1 {
		t.Fatalf("coalesced = %d, want %d", got, storm-1)
	}
	if len(sess.q) != 1 || sess.q[0].msg[0] != byte((storm-1)%256) {
		t.Fatalf("queue = %d entries, head %v (want 1 entry, the newest)", len(sess.q), sess.q[0].msg)
	}
	// Peer chatter fills the remaining depth, then supersedes in place.
	for i := 0; i < outQueueDepth+10; i++ {
		sess.enqueue(outEntry{cls: classPeer, msg: []byte{byte(i)}})
	}
	if len(sess.q) > outQueueDepth+1 {
		t.Fatalf("queue grew to %d (> depth %d)", len(sess.q), outQueueDepth)
	}
	if got := sess.dropped.Load(); got != 0 {
		t.Fatalf("dropped = %d with peer entries available to supersede", got)
	}
	// A new sim-state event still lands even with the queue at depth.
	if !sess.enqueue(outEntry{cls: classState, msg: []byte{0xFF}}) {
		t.Fatal("sim-state enqueue failed on a full queue")
	}
	// Drops only occur when there is nothing of the class to supersede:
	// a control event into a queue full of responses/peers it cannot
	// touch... first drain peers to build a pure-response queue.
	resp := newSession(nil, nil, 2, proto.RoleObserver)
	for i := 0; i < outQueueDepth; i++ {
		resp.enqueue(outEntry{cls: classResponse, msg: []byte("r")})
	}
	if resp.enqueue(outEntry{cls: classControl, msg: []byte("c")}) {
		t.Fatal("control event landed with nothing to supersede in a full queue")
	}
	if got := resp.dropped.Load(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

// TestGracefulShutdownDrainsSessions: Close sends every session a
// goodbye, flushes the queues, and completes the close handshake.
func TestGracefulShutdownDrainsSessions(t *testing.T) {
	addr, _, _, srv := startServerFull(t)
	a := dialClient(t, addr)
	b := dialClient(t, addr)
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for name, cl := range map[string]*client.Client{"a": a, "b": b} {
		if _, err := cl.WaitEvent("goodbye", 5*time.Second); err != nil {
			t.Fatalf("client %s: %v", name, err)
		}
		if _, err := cl.WaitEvent("disconnect", 5*time.Second); err != nil {
			t.Fatalf("client %s after goodbye: %v", name, err)
		}
	}
}

// TestClientReconnect: after losing its connection, a client can
// re-attach to the same endpoint and gets a fresh session.
func TestClientReconnect(t *testing.T) {
	addr, _, _ := startServerAddr(t)
	cl := dialClient(t, addr)
	firstID := cl.SessionID()
	cl.Close()
	if _, err := cl.WaitEvent("disconnect", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reconnect(); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	ev, err := cl.WaitEvent("welcome", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.SessionID == firstID || ev.SessionID == 0 {
		t.Fatalf("reconnect session id = %d (first was %d)", ev.SessionID, firstID)
	}
	// The fresh session is alone once the server has reaped the closed
	// one, so it holds control again: at attach, or by promotion when
	// the server notices the old connection closing only after it.
	if cl.Role() != proto.RoleController {
		ev, err := cl.WaitEvent("control", 5*time.Second)
		if err != nil || ev.Controller != cl.SessionID() || cl.Role() != proto.RoleController {
			t.Fatalf("role after reconnect = %q (control event %+v, %v)", cl.Role(), ev, err)
		}
	}
	if _, err := cl.Sessions(); err != nil {
		t.Fatalf("request on reconnected session: %v", err)
	}
}

// TestDisconnectSentinelSurvivesFullEventBuffer: a client whose Events
// buffer is saturated with unread broadcasts must still learn that the
// connection died — the sentinel evicts an old event instead of being
// dropped.
func TestDisconnectSentinelSurvivesFullEventBuffer(t *testing.T) {
	addr, _, _ := startServerAddr(t)
	cl := dialClient(t, addr)
	// Saturate cl's event buffer (cap 16) with attach/goodbye chatter
	// it never reads.
	for i := 0; i < 12; i++ {
		peer, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.WaitEvent("welcome", 2*time.Second); err != nil {
			t.Fatal(err)
		}
		peer.Close()
	}
	cl.Close()
	if _, err := cl.WaitEvent("disconnect", 5*time.Second); err != nil {
		t.Fatalf("disconnect sentinel lost in a full buffer: %v", err)
	}
}

// TestReconnectNotSabotagedByStaleTeardown: a reconnect racing the old
// read loop's teardown must keep its fresh waiters and must not see a
// stale disconnect event afterwards.
func TestReconnectNotSabotagedByStaleTeardown(t *testing.T) {
	addr, _, _ := startServerAddr(t)
	cl := dialClient(t, addr)
	for i := 0; i < 5; i++ {
		if err := cl.Reconnect(); err != nil {
			t.Fatalf("reconnect %d: %v", i, err)
		}
		if _, err := cl.WaitEvent("welcome", 5*time.Second); err != nil {
			t.Fatalf("welcome after reconnect %d: %v", i, err)
		}
		// Requests on the fresh generation must round-trip: a stale
		// teardown wiping the new waiting map would hang this.
		if _, err := cl.Sessions(); err != nil {
			t.Fatalf("sessions after reconnect %d: %v", i, err)
		}
	}
}

// TestBadRequestEchoesToken: a request with an unknown type (or
// otherwise failing decode) must still carry the client's token in
// the error response — otherwise the client cannot match it and hangs
// out its full round-trip timeout.
func TestBadRequestEchoesToken(t *testing.T) {
	addr, _, _ := startServerAddr(t)
	conn, err := ws.Dial("ws://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteText([]byte(`{"type":"warp","token":"9"}`)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := conn.ReadText()
		if err != nil {
			t.Fatal(err)
		}
		var resp proto.Response
		if json.Unmarshal(raw, &resp) != nil || resp.Type != "response" {
			continue // skip welcome and other events
		}
		if resp.Token != "9" || resp.Status != "error" {
			t.Fatalf("bad-request response = %+v", resp)
		}
		return
	}
	t.Fatal("no response to the malformed request")
}

// TestEventDemuxKeepsInterleavedEvents pins the client's event
// dispatcher: waiting for stops must not consume (and silently drop)
// interleaved session events, and a Subscription must observe its
// types in broadcast order. Before the demux, WaitStop discarded every
// non-stop event it skipped — any multiplexing consumer (the DAP event
// pump) lost attach/control traffic that arrived between stops.
func TestEventDemuxKeepsInterleavedEvents(t *testing.T) {
	addr, s, incLine := startServerAddr(t)
	ctrl := dialClient(t, addr)
	sub := ctrl.Subscribe(8, "stop")
	if _, err := ctrl.AddBreakpoint("server_test.go", incLine, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(2)
	}()
	if _, err := ctrl.WaitStop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A peer attaches while we are parked: its attach broadcast lands
	// on ctrl's stream before the next stop.
	obs := dialClient(t, addr)
	if err := ctrl.Command("continue"); err != nil {
		t.Fatal(err)
	}
	// Consuming the second stop must not eat the attach event queued
	// before it.
	if _, err := ctrl.WaitStop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Command("continue"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation did not finish")
	}
	ev, err := ctrl.WaitEvent("attach", 2*time.Second)
	if err != nil {
		t.Fatalf("attach event was dropped by the stop waits: %v", err)
	}
	if ev.SessionID != obs.SessionID() {
		t.Fatalf("attach event = %+v, want peer %d", ev, obs.SessionID())
	}
	// The typed subscription saw exactly the stops, in seq order.
	var seqs []uint64
	for i := 0; i < 2; i++ {
		select {
		case sev := <-sub.C:
			if sev.Type != "stop" {
				t.Fatalf("subscription delivered %q", sev.Type)
			}
			seqs = append(seqs, sev.Seq)
		case <-time.After(2 * time.Second):
			t.Fatalf("subscription saw %d stops, want 2", i)
		}
	}
	if seqs[1] <= seqs[0] {
		t.Fatalf("subscription seqs out of order: %v", seqs)
	}
	sub.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("closed subscription still delivers")
	}
}

// TestLateAttacherSeesCurrentStop: a session that attaches while the
// simulation is parked at a stop receives that stop right after its
// welcome — so if it is later promoted to controller it knows the
// simulator is waiting for a command.
func TestLateAttacherSeesCurrentStop(t *testing.T) {
	addr, s, incLine := startServerAddr(t)
	ctrl := dialClient(t, addr)
	if _, err := ctrl.AddBreakpoint("server_test.go", incLine, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Poke("Counter.en", 1)
		s.Run(3)
	}()
	if _, err := ctrl.WaitStop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Attach while parked: the newcomer must see the in-progress stop.
	late := dialClient(t, addr)
	stop, err := late.WaitStop(5 * time.Second)
	if err != nil {
		t.Fatalf("late attacher saw no stop: %v", err)
	}
	if stop.File != "server_test.go" || stop.Line != incLine {
		t.Fatalf("late attacher stop = %s:%d", stop.File, stop.Line)
	}
	// Promotion path: controller drops, the late attacher inherits a
	// parked simulator it knows about, and resumes it.
	ctrl.Close()
	if _, err := late.WaitEvent("control", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := late.Command("continue"); err != nil {
		t.Fatalf("promoted late attacher continue: %v", err)
	}
	resumeUntilDone(t, late, stop.Time, done)
}
