package server

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// fanoutServer builds a bare server with n directly-registered
// sessions (no sockets, no writer goroutines), so broadcast encoding
// can be measured deterministically: frames pile up in the queues and
// nothing else allocates.
func fanoutServer(n int) (*Server, []*Session) {
	s := &Server{sessions: map[int64]*Session{}}
	sessions := make([]*Session, n)
	for i := range sessions {
		sess := newSession(s, nil, int64(i+1), proto.RoleObserver)
		sessions[i] = sess
		s.sessions[sess.ID] = sess
		s.order = append(s.order, sess.ID)
	}
	return s, sessions
}

func fanoutStop(time uint64) *core.StopEvent {
	ev := &core.StopEvent{Time: time, File: "design.go", Line: 42}
	for i := 0; i < 4; i++ {
		ev.Threads = append(ev.Threads, core.Thread{
			BreakpointID: 1, Instance: "Top.lane_" + string(rune('a'+i)),
			Locals: []core.Variable{
				{Name: "state", RTL: "Top.state", Value: time % 7, Width: 3},
				{Name: "count", RTL: "Top.count", Value: time, Width: 32},
				{Name: "valid", RTL: "Top.valid", Value: time % 2, Width: 1},
			},
		})
	}
	return ev
}

// lastQueued returns the newest queued frame bytes of one session.
func lastQueued(t *testing.T, sess *Session) []byte {
	t.Helper()
	sess.qmu.Lock()
	defer sess.qmu.Unlock()
	if len(sess.q) == 0 {
		t.Fatal("session queue empty")
	}
	return sess.q[len(sess.q)-1].msg
}

// TestBroadcastSharedFrame pins the encode-once contract: one
// broadcast hands every session literally the same byte slice, not an
// equal copy.
func TestBroadcastSharedFrame(t *testing.T) {
	s, sessions := fanoutServer(50)
	s.mu.Lock()
	s.broadcastLocked(&proto.Event{Type: "attach", SessionID: 99})
	s.mu.Unlock()
	first := lastQueued(t, sessions[0])
	for _, sess := range sessions[1:] {
		msg := lastQueued(t, sess)
		if &msg[0] != &first[0] {
			t.Fatal("sessions received distinct copies of one broadcast")
		}
	}
	// Same for stop broadcasts through the delta-aware path.
	s.mu.Lock()
	s.broadcastStopLocked(fanoutStop(7))
	s.mu.Unlock()
	first = lastQueued(t, sessions[0])
	for _, sess := range sessions[1:] {
		msg := lastQueued(t, sess)
		if &msg[0] != &first[0] {
			t.Fatal("sessions received distinct copies of one stop broadcast")
		}
	}
}

// TestBroadcastEncodeOnceAllocs is the alloc-pinned half of the
// acceptance criterion: per stop broadcast at 100 observers, the
// shared-frame path must allocate at least 5x less — in allocation
// count and in bytes — than encoding per session did. That baseline is
// measured here as one json.Marshal of the event per session: the
// least the retired per-session broadcast paid. Deterministic — counts
// allocations, not time.
func TestBroadcastEncodeOnceAllocs(t *testing.T) {
	const observers = 100
	const rounds = 50
	s, _ := fanoutServer(observers)
	ev := fanoutStop(1) // built outside: only broadcast cost is measured
	shared := func() {
		s.mu.Lock()
		s.broadcastStopLocked(ev)
		s.mu.Unlock()
		// Drain so queues stay flat (coalescing keeps them at one
		// entry anyway; taking allocates nothing).
		for _, id := range s.order {
			s.sessions[id].take()
		}
	}
	full := &proto.Event{Type: "stop", Seq: 1, Emit: 1, Stop: ev}
	perSession := func() {
		for range s.order {
			if _, err := json.Marshal(full); err != nil {
				t.Fatal(err)
			}
		}
	}
	sharedN := testing.AllocsPerRun(rounds, shared)
	baselineN := testing.AllocsPerRun(rounds, perSession)
	t.Logf("allocs per stop broadcast at %d observers: shared=%.1f per-session encode=%.1f (%.1fx)",
		observers, sharedN, baselineN, baselineN/sharedN)
	if baselineN < 5*sharedN {
		t.Fatalf("shared-frame broadcast allocates %.1f/stop vs per-session encode %.1f — less than the required 5x margin",
			sharedN, baselineN)
	}

	// Same margin in allocated bytes, not just allocation count.
	bytesPer := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	sharedB := bytesPer(shared)
	baselineB := bytesPer(perSession)
	t.Logf("bytes allocated per stop broadcast at %d observers: shared=%.0f per-session encode=%.0f (%.1fx)",
		observers, sharedB, baselineB, baselineB/sharedB)
	if baselineB < 5*sharedB {
		t.Fatalf("shared-frame broadcast allocates %.0fB/stop vs per-session encode %.0fB — less than the required 5x margin",
			sharedB, baselineB)
	}
}

// TestBroadcastDeltaSharing pins the delta fan-out: sessions that
// acked the same base share one delta frame, the delta is ≥5x smaller
// than the baseline full JSON frame, and the per-session frame
// counters record the encoding split.
func TestBroadcastDeltaSharing(t *testing.T) {
	s, sessions := fanoutServer(10)
	// Half the sessions negotiated binary+delta; the rest are legacy.
	for _, sess := range sessions[:5] {
		sess.binary = true
		sess.delta = true
	}
	base := fanoutStop(100)
	s.mu.Lock()
	s.broadcastStopLocked(base)
	baseSeq := s.seq
	s.mu.Unlock()
	for _, sess := range sessions {
		if got := sess.fullFrames.Load(); got != 1 {
			t.Fatalf("session %d fullFrames = %d after first stop", sess.ID, got)
		}
		sess.take()
		// Delta sessions ack the stop (normally the client does this).
		if sess.delta {
			sess.lastAck.Store(baseSeq)
		}
	}

	next := fanoutStop(110)
	s.mu.Lock()
	s.broadcastStopLocked(next)
	s.mu.Unlock()

	fullJSON := lastQueued(t, sessions[9]) // legacy session: full JSON frame
	deltaBin := lastQueued(t, sessions[0]) // delta session: shared binary delta
	for _, sess := range sessions[1:5] {
		msg := lastQueued(t, sess)
		if &msg[0] != &deltaBin[0] {
			t.Fatal("delta sessions with one acked base received distinct frames")
		}
		if sess.deltaFrames.Load() != 1 || sess.fullFrames.Load() != 1 {
			t.Fatalf("session %d frames = %d delta / %d full",
				sess.ID, sess.deltaFrames.Load(), sess.fullFrames.Load())
		}
	}
	if len(deltaBin)*5 > len(fullJSON) {
		t.Fatalf("delta frame %dB not ≥5x smaller than full JSON %dB", len(deltaBin), len(fullJSON))
	}
	// The delta must reconstruct the exact broadcast stop.
	dec, err := proto.DecodeBinaryFrame(deltaBin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := proto.ApplyStop(base, dec.Delta)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(next)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("delta reconstruction mismatch:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestBroadcastAckGapResync pins the resync rule: a session whose ack
// fell out of the stop history window (or acked a future/unknown seq)
// gets a full frame, never a bogus delta.
func TestBroadcastAckGapResync(t *testing.T) {
	old := stopHistoryDepth
	stopHistoryDepth = 4
	defer func() { stopHistoryDepth = old }()

	s, sessions := fanoutServer(1)
	sess := sessions[0]
	sess.delta = true
	s.mu.Lock()
	s.broadcastStopLocked(fanoutStop(1))
	firstSeq := s.seq
	s.mu.Unlock()
	sess.take()

	// An ack for a seq the server never retained (gap) forces a full
	// frame.
	sess.lastAck.Store(firstSeq + 999)
	s.mu.Lock()
	s.broadcastStopLocked(fanoutStop(2))
	s.mu.Unlock()
	if d, f := sess.deltaFrames.Load(), sess.fullFrames.Load(); d != 0 || f != 2 {
		t.Fatalf("frames after gap ack = %d delta / %d full, want 0/2", d, f)
	}

	// An acked base that falls out of the history window forces a full
	// frame too: broadcast past the depth while the ack stays stale,
	// then decode the newest queued frame — it must carry a full Stop.
	sess.lastAck.Store(firstSeq)
	s.mu.Lock()
	for i := uint64(3); i <= 3+uint64(stopHistoryDepth)+1; i++ {
		s.broadcastStopLocked(fanoutStop(i))
	}
	s.mu.Unlock()
	var last proto.Event
	if err := json.Unmarshal(lastQueued(t, sess), &last); err != nil {
		t.Fatal(err)
	}
	if last.Stop == nil || last.Delta != nil {
		t.Fatalf("frame after base eviction = %+v, want a full stop", last)
	}

	// Ack within the window: deltas resume.
	s.mu.Lock()
	lastSeq := s.seq
	s.mu.Unlock()
	sess.lastAck.Store(lastSeq)
	before := sess.deltaFrames.Load()
	s.mu.Lock()
	s.broadcastStopLocked(fanoutStop(99))
	s.mu.Unlock()
	if got := sess.deltaFrames.Load(); got != before+1 {
		t.Fatalf("deltaFrames = %d after re-ack, want %d", got, before+1)
	}
}
