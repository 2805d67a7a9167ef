package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ws"
)

// Tunables for session I/O. Variables (not constants) so tests can
// tighten them; set before Listen.
var (
	// outQueueDepth is each session's outbound queue capacity for
	// broadcast events. Sim-state events (stop/resume) coalesce to one
	// queued entry and never count against it; peer/control events
	// coalesce within their class once the queue is full, and drop only
	// when there is nothing of their class to supersede.
	outQueueDepth = 64
	// responseQueueHardCap bounds the whole queue including responses;
	// a session that pipelines requests faster than its link drains
	// replies is declared dead rather than growing without bound.
	responseQueueHardCap = 1024
	// sessionWriteTimeout bounds every write call to a session: one
	// drained batch of frames, or a keepalive ping.
	sessionWriteTimeout = 10 * time.Second
	// pingInterval is the keepalive cadence on idle session links.
	pingInterval = 15 * time.Second
)

// eventClass buckets outbound frames for the coalescing policy. The
// queue preserves arrival order; coalescing removes a superseded entry
// and appends its replacement at the tail, so what survives is always
// a subsequence of the broadcast stream — never a reordering.
type eventClass uint8

const (
	// classResponse: request replies and the welcome frame. Never
	// coalesced, never dropped (a client round trip hangs without its
	// reply); a queue over the hard cap kills the session instead.
	classResponse eventClass = iota
	// classState: stop/resume — the simulation state events. A newer
	// state event always supersedes a queued one: a slow observer sees
	// the latest coherent state, not an arbitrary surviving prefix.
	classState
	// classPeer: attach/goodbye peer-roster events. Coalesce only under
	// queue pressure — each carries the current roster counters, so the
	// newest subsumes the rest.
	classPeer
	// classControl: control-transfer events. Coalesce only under
	// pressure; the newest names the current controller.
	classControl
)

// outEntry is one queued outbound frame, already encoded for this
// session's negotiated wire encoding.
type outEntry struct {
	cls    eventClass
	msg    []byte
	binary bool // write as a binary ws frame
}

// Session is one attached debugger client. The server goroutines
// touching it are: the reader (request loop), the writer (outbound
// queue drain + keepalive), and any goroutine broadcasting events.
type Session struct {
	// ID is unique per server, assigned at attach in increasing order;
	// the attach order is also the control succession order.
	ID int64

	srv  *Server
	conn *ws.Conn

	// role is guarded by srv.mu (arbitration is server-global state).
	role string

	// binary/delta record the wire negotiation made at attach
	// (?enc=binary, ?delta=1); immutable afterwards.
	binary bool
	delta  bool

	// lastAck is the newest broadcast seq the client acknowledged
	// holding ("ack" requests); stop broadcasts may be delta-encoded
	// against it. 0 = no acked base (full frames).
	lastAck atomic.Uint64

	// q is the outbound coalescing queue (guarded by qmu); notify has
	// capacity 1 and wakes the writer when the queue goes non-empty.
	qmu    sync.Mutex
	q      []outEntry
	notify chan struct{}
	// spare is the batch the writer last took, and frames its ws view:
	// writer-goroutine scratch, reused so a steady stream allocates
	// nothing.
	spare  []outEntry
	frames []ws.Frame

	// quit closes (once) when the session is dropped; the writer
	// flushes what is already queued and closes the connection.
	quit     chan struct{}
	quitOnce sync.Once

	// dropped counts broadcast events discarded under backpressure
	// (nothing of their class was queued to supersede); coalesced
	// counts queued events superseded by a newer same-class event.
	dropped   atomic.Uint64
	coalesced atomic.Uint64
	// deltaFrames/fullFrames count how this session's stop broadcasts
	// were encoded.
	deltaFrames atomic.Uint64
	fullFrames  atomic.Uint64
	// dead flips when the writer hits an I/O error: frames are
	// discarded from then on, but the queue keeps draining so
	// enqueuers never block.
	dead atomic.Bool

	// writerDone closes when the writer goroutine has flushed the
	// queue and closed the connection — the drain point for graceful
	// shutdown.
	writerDone chan struct{}
}

func newSession(srv *Server, conn *ws.Conn, id int64, role string) *Session {
	return &Session{
		ID:         id,
		srv:        srv,
		conn:       conn,
		role:       role,
		notify:     make(chan struct{}, 1),
		quit:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
}

// signalQuit asks the writer to flush and exit; idempotent.
func (sess *Session) signalQuit() {
	sess.quitOnce.Do(func() { close(sess.quit) })
}

// wake nudges the writer; the 1-slot channel makes it level-triggered.
func (sess *Session) wake() {
	select {
	case sess.notify <- struct{}{}:
	default:
	}
}

// removeNewestLocked deletes the newest queued entry of class cls,
// reporting whether one existed. Callers hold qmu.
func (sess *Session) removeNewestLocked(cls eventClass) bool {
	for i := len(sess.q) - 1; i >= 0; i-- {
		if sess.q[i].cls == cls {
			sess.q = append(sess.q[:i], sess.q[i+1:]...)
			return true
		}
	}
	return false
}

// enqueue applies the coalescing policy and queues one frame. It never
// blocks (broadcasts run inside the simulator's clock callback, often
// under s.mu) and reports whether the frame was queued or superseded
// into the queue — false only for a pressure drop with nothing to
// supersede.
func (sess *Session) enqueue(e outEntry) bool {
	sess.qmu.Lock()
	switch e.cls {
	case classState:
		// A queued sim-state event is always superseded: delete it and
		// append the newer one at the tail (subsequence order holds).
		// At most one state entry is ever queued, so a state enqueue
		// always succeeds — a controller's stop cannot be shed.
		if sess.removeNewestLocked(classState) {
			sess.coalesced.Add(1)
		}
		sess.q = append(sess.q, e)
	case classPeer, classControl:
		if len(sess.q) >= outQueueDepth {
			// Under pressure the newest same-class entry is superseded
			// in place of growth; with none queued the event is shed.
			if !sess.removeNewestLocked(e.cls) {
				sess.qmu.Unlock()
				sess.dropped.Add(1)
				return false
			}
			sess.coalesced.Add(1)
		}
		sess.q = append(sess.q, e)
	default: // classResponse — never coalesced, never dropped
		sess.q = append(sess.q, e)
	}
	sess.qmu.Unlock()
	sess.wake()
	return true
}

// enqueueResponse queues a reply to a request this session made.
// Responses are never coalesced or dropped — the client's request loop
// is stalled without one — but a session that pipelines requests
// faster than its link drains replies is declared dead rather than
// growing the queue without bound. Must not be called under s.mu.
func (sess *Session) enqueueResponse(msg []byte) {
	sess.enqueue(outEntry{cls: classResponse, msg: msg})
	sess.qmu.Lock()
	wedged := len(sess.q) > responseQueueHardCap
	sess.qmu.Unlock()
	if wedged {
		sess.srv.dropSession(sess.ID, "response queue wedged")
	}
}

// take removes the whole queue under qmu and returns it in queue
// order; its entries are in flight from then on, so coalescing no
// longer reaches them. The batch the previous take returned, written
// by now, is emptied and becomes the new queue: the writer alternates
// two backing arrays, and written frames do not stay pinned. Only the
// writer calls take.
func (sess *Session) take() []outEntry {
	clear(sess.spare)
	sess.qmu.Lock()
	batch := sess.q
	sess.q = sess.spare[:0]
	sess.qmu.Unlock()
	sess.spare = batch
	return batch
}

// drain writes the queue until it is empty, each batch it takes with
// one ws write call under one write deadline, which returns even
// against a wedged peer. An I/O failure marks the session dead (and
// drops it); a dead session's batches are discarded.
func (sess *Session) drain() {
	for {
		batch := sess.take()
		if len(batch) == 0 {
			return
		}
		if sess.dead.Load() {
			continue
		}
		frames := sess.frames[:0]
		for _, e := range batch {
			op := byte(ws.TextMessage)
			if e.binary {
				op = ws.BinaryMessage
			}
			frames = append(frames, ws.Frame{Op: op, Payload: e.msg})
		}
		err := sess.conn.WriteFrames(frames)
		clear(frames)
		sess.frames = frames
		if err != nil {
			sess.dead.Store(true)
			sess.srv.dropSession(sess.ID, "write: "+err.Error())
		}
	}
}

// writeLoop is the session's writer goroutine: it drains the outbound
// queue, pings the peer when idle, and — once quit is signaled —
// flushes what remains and runs the (bounded) close handshake.
func (sess *Session) writeLoop() {
	defer close(sess.writerDone)
	ticker := time.NewTicker(pingInterval)
	defer ticker.Stop()
	for {
		select {
		case <-sess.quit:
			sess.drain()
			sess.conn.Close()
			return
		case <-sess.notify:
			sess.drain()
		case <-ticker.C:
			if sess.dead.Load() {
				continue
			}
			if err := sess.conn.Ping(nil); err != nil {
				sess.dead.Store(true)
				sess.srv.dropSession(sess.ID, "keepalive: "+err.Error())
			}
		}
	}
}
