// Package server exposes an hgdb runtime over the WebSocket debugging
// protocol — the bridge between the simulation thread (where the
// runtime's handler blocks on a stop) and attached debugger clients,
// matching the architecture of Figure 1: the runtime sits inside the
// simulator; debugger tools attach over RPC.
//
// The server is a session manager: any number of debugger clients
// attach concurrently to the one runtime. Each session has an id, a
// role, and its own backpressured outbound queue drained by a writer
// goroutine (a slow observer coalesces broadcast events to the latest
// coherent state instead of stalling the simulation; see session.go
// and broadcast.go for the fan-out machinery). Exactly one session
// holds control — it
// alone may resume the simulation or mutate state — arbitrated
// first-attach-owns, handed off on explicit release or disconnect.
// Every other session is an observer: it receives the same broadcast
// stop/attach/goodbye/control events and may run read-only requests
// (evaluate, get-value, info) even while the simulation is running;
// those execute through the runtime's clock-edge query queue, never
// racing the scheduler.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/vpi"
	"repro/internal/ws"
)

// queryGrace is how long state queries wait for a drain point (clock
// edge or parked stop loop) before concluding the simulation is idle;
// see core.Runtime.RunQuery.
var queryGrace = 250 * time.Millisecond

// Server bridges one hgdb runtime to any number of debugger sessions.
type Server struct {
	rt *core.Runtime

	mu          sync.Mutex
	sessions    map[int64]*Session
	order       []int64 // attach order; also control succession order
	controller  int64   // session holding control; 0 = vacant
	nextSID     int64
	seq         uint64            // broadcast event sequence
	pending     chan core.Command // non-nil while stopped at a breakpoint
	currentStop *core.StopEvent   // the stop being served while pending != nil
	closing     bool

	// stopHist retains recent stop broadcasts as delta bases (see
	// broadcast.go).
	stopHist []stopRecord

	// reverse records whether the backend supports SetTime (replay),
	// probed once at construction; advertised in welcome events and the
	// status topic so clients can gate reverse-execution features.
	reverse bool

	// runtimeID is the registry id this server is known by when it
	// runs behind a hub; stamped on welcome/goodbye events so clients
	// can verify routing. Empty for standalone servers.
	runtimeID string

	ln      net.Listener
	httpSrv *http.Server
	log     *log.Logger
}

// New wires a server to a runtime. While a session is attached the
// server is the runtime's stop handler: stops are broadcast to every
// attached session and the simulation blocks until the controlling
// session answers with a command — serving queued state queries from
// other sessions while it waits. The first attach installs the handler
// and the last session to leave removes it, so with no session
// attached nothing stops the runtime (and its Drive loop parks).
func New(rt *core.Runtime, logger *log.Logger) *Server {
	s := &Server{
		rt:       rt,
		sessions: map[int64]*Session{},
		log:      logger,
		// A backend that accepts a seek to the current time can seek
		// anywhere: live simulators refuse (vpi.ErrNotSupported), replay
		// engines accept. Probed here, before the simulation runs.
		reverse: rt.Backend().SetTime(rt.Backend().Time()) == nil,
	}
	return s
}

// Runtime returns the wrapped runtime.
func (s *Server) Runtime() *core.Runtime { return s.rt }

// SetRuntimeID names this server in a hub registry: welcome and
// shutdown goodbye events carry the id so clients can verify their
// attach was routed to the runtime they asked for. Set before the
// first attach.
func (s *Server) SetRuntimeID(id string) {
	s.mu.Lock()
	s.runtimeID = id
	s.mu.Unlock()
}

// SessionCount returns the number of attached sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

// onStop runs on the simulation goroutine: broadcast the stop to all
// sessions, then block until the controller resumes — meanwhile
// serving the runtime's query queue so observers can still read state.
func (s *Server) onStop(ev *core.StopEvent) core.Command {
	s.mu.Lock()
	if len(s.sessions) == 0 || s.closing {
		// An edge that began before the last session left (or before
		// Shutdown) still holds this handler: nobody can answer.
		s.mu.Unlock()
		return core.CmdContinue
	}
	resume := make(chan core.Command, 1)
	s.pending = resume
	s.currentStop = ev
	// Broadcast the stop. A sim-state enqueue always lands (it
	// supersedes any queued state event rather than competing for
	// space), so the controller's load-bearing copy — the simulation
	// is about to park on that session's command — can only be lost to
	// a dead connection. Such a controller forfeits control: it is
	// dropped (outside the lock), which hands control to an informed
	// session or auto-continues.
	controllerID := s.controller
	s.broadcastStopLocked(ev)
	stopLost := false
	if ctl := s.sessions[controllerID]; ctl != nil && ctl.dead.Load() {
		stopLost = true
	}
	s.mu.Unlock()
	if stopLost {
		s.dropSession(controllerID, "stop event undeliverable (connection dead)")
	}

	for {
		select {
		case cmd := <-resume:
			return cmd
		case job := <-s.rt.Queries():
			job.Run()
		}
	}
}

// sendResume hands the stopped simulation its next command and tells
// every session the simulation left the stop (the "resume" half of the
// sim-state event class — without it, coalescing a stop away could
// leave a slow observer believing the sim is still parked). Callers
// hold s.mu. The buffered send cannot block: pending is cleared on
// every send, so each resume channel sees at most one.
func (s *Server) sendResumeLocked(cmd core.Command) bool {
	if s.pending == nil {
		return false
	}
	s.pending <- cmd
	s.pending = nil
	s.currentStop = nil
	s.broadcastLocked(&proto.Event{
		Type: "resume", Command: proto.CommandString(cmd),
	})
	return true
}

// broadcastLocked stamps the event with the next sequence number and
// enqueues it to every session. Callers hold s.mu. Enqueues never
// block (slow sessions coalesce or drop), so holding the lock is fine.
func (s *Server) broadcastLocked(ev *proto.Event) {
	s.broadcastExceptLocked(ev, 0)
}

// broadcastExceptLocked is broadcastLocked minus one recipient: the
// event is encoded once per wire encoding and consumes one sequence
// number no matter how many sessions receive it, preserving the
// invariant that every session observes a subsequence of the same
// stream.
func (s *Server) broadcastExceptLocked(ev *proto.Event, exclude int64) {
	s.seq++
	ev.Seq = s.seq
	ev.Emit = time.Now().UnixNano()
	f := newFrame(ev)
	for _, id := range s.order {
		if id == exclude {
			continue
		}
		s.enqueueFrameLocked(s.sessions[id], f)
	}
}

// sendEventLocked stamps and enqueues an event to one session,
// keeping its Seq consistent with the broadcast stream. Callers hold
// s.mu.
func (s *Server) sendEventLocked(sess *Session, ev *proto.Event) {
	s.seq++
	ev.Seq = s.seq
	ev.Emit = time.Now().UnixNano()
	s.enqueueFrameLocked(sess, newFrame(ev))
}

// Listen starts serving the debugging protocol on addr
// (host:port). It returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains this server's sessions gracefully and nothing else:
// it stops accepting new sessions, resumes a simulation parked at a
// stop (so the simulation goroutine can observe its own cancellation
// instead of deadlocking on a commander that will never come), removes
// the server's stop handler, sends every session a goodbye, and waits for each writer to flush its
// queue and complete the close handshake — bounded by ctx, one shared
// deadline for all writers, so shutdown latency is the slowest
// session, not the sum over wedged ones.
//
// Shutdown is the per-runtime half of Close: it never touches the
// listener or HTTP machinery, so a hub evicting one runtime can drain
// that runtime's sessions without tearing down siblings sharing the
// endpoint. Idempotent; returns ctx.Err() if any writer failed to
// drain in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.sendResumeLocked(core.CmdContinue)
	drained := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		sess := s.sessions[id]
		s.sendEventLocked(sess, &proto.Event{
			Type: "goodbye", SessionID: sess.ID, Reason: "shutdown",
			Runtime: s.runtimeID,
		})
		sess.signalQuit()
		drained = append(drained, sess)
	}
	s.sessions = map[int64]*Session{}
	s.order = nil
	s.controller = 0
	s.rt.SetHandler(nil)
	s.mu.Unlock()

	var err error
	for _, sess := range drained {
		select {
		case <-sess.writerDone:
		case <-ctx.Done():
			s.logf("server: session %d writer did not drain", sess.ID)
			err = ctx.Err()
		}
	}
	return err
}

// Close shuts the whole server process down: Shutdown with the
// default drain deadline, then the listener.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*sessionWriteTimeout)
	s.Shutdown(ctx)
	cancel()
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}

// attach registers a new connection as a session: the first attach
// (or any attach while control is vacant) becomes the controller,
// everyone else an observer. The wire negotiation (binary encoding,
// delta stop frames) comes from the upgrade URL's query parameters.
// Returns nil if the server is closing.
func (s *Server) attach(conn *ws.Conn, binary, delta bool) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil
	}
	s.nextSID++
	role := proto.RoleObserver
	if s.controller == 0 {
		role = proto.RoleController
	}
	sess := newSession(s, conn, s.nextSID, role)
	sess.binary = binary
	sess.delta = delta
	if role == proto.RoleController {
		s.controller = sess.ID
	}
	if len(s.sessions) == 0 {
		s.rt.SetHandler(s.onStop)
	}
	s.sessions[sess.ID] = sess
	s.order = append(s.order, sess.ID)
	go sess.writeLoop()

	s.sendEventLocked(sess, &proto.Event{
		Type:       "welcome",
		SessionID:  sess.ID,
		Role:       role,
		Controller: s.controller,
		Peers:      len(s.sessions),
		Top:        s.rt.Table().Top(),
		Mode:       s.rt.Table().Mode(),
		Files:      len(s.rt.Table().Files()),
		Reverse:    s.reverse,
		Runtime:    s.runtimeID,
	})
	// A session attaching while the simulation is parked at a stop
	// must learn about it — it may be promoted to controller later and
	// would otherwise command a simulator it believes is running.
	if s.currentStop != nil {
		s.replayStopLocked(sess, s.currentStop)
	}
	// Tell everyone else a peer arrived.
	s.broadcastExceptLocked(&proto.Event{
		Type: "attach", SessionID: sess.ID, Role: role,
		Controller: s.controller, Peers: len(s.sessions),
	}, sess.ID)
	return sess
}

// dropSession removes a session: hands control to the oldest
// surviving session if the controller left, auto-continues a stopped
// simulation that just lost its last possible commander, and tells
// the remaining sessions. The last session to leave takes the
// server's stop handler with it. Idempotent.
func (s *Server) dropSession(id int64, reason string) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	s.logf("server: session %d dropped: %s", id, reason)
	delete(s.sessions, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	wasController := s.controller == id
	if wasController {
		s.promoteLocked(0)
	}
	if len(s.sessions) == 0 || (wasController && s.controller == 0) {
		// Nobody can issue continue anymore: a stopped simulation must
		// not deadlock waiting for a commander that will never come.
		// Control stays vacant with sessions attached only when every
		// candidate was too backlogged to take the stop replay — none
		// of them knows the sim is parked, so resume it.
		s.sendResumeLocked(core.CmdContinue)
	}
	if len(s.sessions) == 0 {
		s.rt.SetHandler(nil)
	}
	s.broadcastLocked(&proto.Event{
		Type: "goodbye", SessionID: id,
		Controller: s.controller, Peers: len(s.sessions),
		Reason: reason,
	})
	if wasController && s.controller != 0 {
		s.broadcastLocked(&proto.Event{
			Type: "control", Controller: s.controller, Reason: "disconnect",
		})
	}
	s.mu.Unlock()
	sess.signalQuit()
}

// ServeHTTP accepts one debugger connection: it upgrades the request
// to WebSocket, attaches a session, and runs its request loop until
// the connection dies. Exported (the Server is an http.Handler) so a
// hub can route upgrade requests from a shared listener to the
// runtime the URL names — the server behaves identically whether it
// owns the listener (Listen) or sits behind one endpoint among many
// sibling runtimes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Wire negotiation rides the upgrade URL: ?enc=binary selects the
	// length-prefixed binary event encoding, ?delta=1 opts into
	// delta-encoded stop frames (the client must then ack stops).
	q := r.URL.Query()
	binary := q.Get("enc") == "binary"
	delta := q.Get("delta") == "1" || q.Get("delta") == "true"
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	conn.SetWriteTimeout(sessionWriteTimeout)
	sess := s.attach(conn, binary, delta)
	if sess == nil {
		msg, _ := json.Marshal(proto.Error("", "server is shutting down"))
		conn.WriteText(msg)
		conn.Close()
		return
	}

	// Request loop (this goroutine is the session's reader).
	for {
		raw, err := conn.ReadText()
		if err != nil {
			s.dropSession(sess.ID, fmt.Sprintf("read: %v", err))
			return
		}
		req, err := proto.DecodeRequest(raw)
		if err != nil {
			// Echo the token when the JSON was parseable enough to
			// carry one, so the client's round trip fails immediately
			// instead of timing out on an unmatchable response.
			var head struct {
				Token string `json:"token"`
			}
			json.Unmarshal(raw, &head)
			s.reply(sess, proto.Error(head.Token, "%v", err))
			continue
		}
		if resp := s.dispatch(sess, req); resp != nil {
			s.reply(sess, resp)
		}
	}
}

func (s *Server) reply(sess *Session, resp *proto.Response) {
	msg, err := json.Marshal(resp)
	if err != nil {
		return
	}
	sess.enqueueResponse(msg)
}

// promoteLocked moves control to the oldest session in attach order,
// skipping exclude; with no candidate, control goes vacant. It is the
// single implementation of the succession policy, shared by
// disconnect handoff and explicit release. Returns the new controller
// id (0 = vacant). Callers hold s.mu.
func (s *Server) promoteLocked(exclude int64) int64 {
	s.controller = 0
	for _, id := range s.order {
		if id == exclude {
			continue
		}
		heir := s.sessions[id]
		// A session promoted while the simulation is parked at a stop
		// must know about it — its own copy of the broadcast may have
		// been coalesced away, and the sim now waits on this session's
		// command. The replay is load-bearing; a sim-state enqueue
		// always lands, so only a candidate whose connection is already
		// dead is skipped (the next in line is tried). A duplicate stop
		// is cosmetic; a missing one wedges the simulation.
		if heir.dead.Load() {
			continue
		}
		if s.currentStop != nil && !s.replayStopLocked(heir, s.currentStop) {
			continue
		}
		heir.role = proto.RoleController
		s.controller = heir.ID
		break
	}
	return s.controller
}

// controlErrorLocked builds the denial response for a session without
// control. Callers hold s.mu and have already found sess not to be
// the controller.
func (s *Server) controlErrorLocked(sess *Session, token string) *proto.Response {
	if s.controller == 0 {
		return proto.Error(token, "control required (vacant — send {\"type\":\"session\",\"action\":\"claim\"})")
	}
	return proto.Error(token, "control required (held by session %d, you are session %d)",
		s.controller, sess.ID)
}

// requireControl returns an error response when sess does not hold
// control, nil when it does. Note the check alone is advisory — a
// concurrent transfer can land right after it. Actions that must be
// atomic with the check use withControl or re-check at execution time.
func (s *Server) requireControl(sess *Session, token string) *proto.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.controller == sess.ID {
		return nil
	}
	return s.controlErrorLocked(sess, token)
}

// withControl runs fn while holding s.mu with sess verified as the
// controller — the check and the action are one critical section, so
// a control transfer can never interleave. Only for fast runtime
// bookkeeping (fn must not block).
func (s *Server) withControl(sess *Session, token string, fn func() *proto.Response) *proto.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.controller != sess.ID {
		return s.controlErrorLocked(sess, token)
	}
	return fn()
}

// runQuery executes fn with simulation state guaranteed stable (see
// core.Runtime.RunQuery) and returns its response.
func (s *Server) runQuery(token string, fn func() *proto.Response) *proto.Response {
	var resp *proto.Response
	if err := s.rt.RunQuery(queryGrace, func() { resp = fn() }); err != nil {
		return proto.Error(token, "%v", err)
	}
	return resp
}

// controlledQuery is runQuery for control-gated mutations: a fast
// pre-check rejects non-controllers before queueing, and the check is
// repeated inside the job because control may move while it waits for
// a drain point.
func (s *Server) controlledQuery(sess *Session, token string, fn func() *proto.Response) *proto.Response {
	if resp := s.requireControl(sess, token); resp != nil {
		return resp
	}
	return s.runQuery(token, func() *proto.Response {
		if resp := s.requireControl(sess, token); resp != nil {
			return resp
		}
		return fn()
	})
}

// dispatch executes one request on the session's reader goroutine.
// Requests that touch simulation state run through the runtime's
// query queue; requests that only touch runtime bookkeeping (which
// has its own locking) run inline.
func (s *Server) dispatch(sess *Session, req *proto.Request) *proto.Response {
	switch req.Type {
	case "breakpoint":
		return s.handleBreakpoint(sess, req)
	case "command":
		return s.handleCommand(sess, req)
	case "evaluate":
		return s.runQuery(req.Token, func() *proto.Response {
			// Four-state evaluation: identical to the two-state result on
			// fully known designs, and renders x/z and >64-bit values
			// instead of erroring.
			b, err := s.rt.EvaluateBits(req.Instance, req.Expression)
			if err != nil {
				return proto.Error(req.Token, "%v", err)
			}
			resp, err := proto.OK(req.Token, proto.ValueInfoOf(b, s.rt.Backend().Time()))
			if err != nil {
				return proto.Error(req.Token, "%v", err)
			}
			return resp
		})
	case "get-value":
		return s.runQuery(req.Token, func() *proto.Response {
			b, err := vpi.ReadBits(s.rt.Backend(), req.Path)
			if err != nil {
				// Try symtab-relative paths too.
				b, err = vpi.ReadBits(s.rt.Backend(), s.rt.Remap().ToSim(req.Path))
			}
			if err != nil {
				return proto.Error(req.Token, "%v", err)
			}
			resp, _ := proto.OK(req.Token, proto.ValueInfoOf(b, s.rt.Backend().Time()))
			return resp
		})
	case "set-value":
		return s.controlledQuery(sess, req.Token, func() *proto.Response {
			err := s.rt.Backend().SetValue(req.Path, req.Value)
			if err != nil {
				err = s.rt.Backend().SetValue(s.rt.Remap().ToSim(req.Path), req.Value)
			}
			if err != nil {
				return proto.Error(req.Token, "%v", err)
			}
			resp, _ := proto.OK(req.Token, nil)
			return resp
		})
	case "info":
		return s.handleInfo(req)
	case "watch":
		return s.handleWatch(sess, req)
	case "session":
		return s.handleSession(sess, req)
	case "ack":
		// Fire-and-forget: record the newest snapshot the client holds
		// so later stop broadcasts can be delta-encoded against it.
		// AckSeq 0 is a client-requested resync back to full frames.
		sess.lastAck.Store(req.AckSeq)
		return nil
	}
	return proto.Error(req.Token, "unknown request type %q", req.Type)
}

// handleSession implements the session-management surface: listing
// attached sessions and moving control between them.
func (s *Server) handleSession(sess *Session, req *proto.Request) *proto.Response {
	switch req.Action {
	case "list":
		s.mu.Lock()
		infos := make([]proto.SessionInfo, 0, len(s.order))
		for _, id := range s.order {
			o := s.sessions[id]
			enc := "json"
			if o.binary {
				enc = "binary"
			}
			infos = append(infos, proto.SessionInfo{
				ID: o.ID, Role: o.role,
				Dropped:     o.dropped.Load(),
				Coalesced:   o.coalesced.Load(),
				Encoding:    enc,
				Delta:       o.delta,
				DeltaFrames: o.deltaFrames.Load(),
				FullFrames:  o.fullFrames.Load(),
				BytesSent:   o.conn.BytesWritten(),
			})
		}
		s.mu.Unlock()
		resp, _ := proto.OK(req.Token, infos)
		return resp
	case "release":
		s.mu.Lock()
		if s.controller != sess.ID {
			resp := s.controlErrorLocked(sess, req.Token)
			s.mu.Unlock()
			return resp
		}
		sess.role = proto.RoleObserver
		// Hand off to the oldest other session; with none, control
		// goes vacant and the next attach (or claim) takes it.
		newController := s.promoteLocked(sess.ID)
		s.broadcastLocked(&proto.Event{
			Type: "control", Controller: newController, Reason: "release",
		})
		s.mu.Unlock()
		resp, _ := proto.OK(req.Token, map[string]any{"controller": newController})
		return resp
	case "claim":
		s.mu.Lock()
		if s.controller != 0 && s.controller != sess.ID {
			id := s.controller
			s.mu.Unlock()
			return proto.Error(req.Token, "control is held by session %d", id)
		}
		sess.role = proto.RoleController
		s.controller = sess.ID
		s.broadcastLocked(&proto.Event{
			Type: "control", Controller: s.controller, Reason: "claim",
		})
		s.mu.Unlock()
		resp, _ := proto.OK(req.Token, map[string]any{"controller": sess.ID})
		return resp
	}
	return proto.Error(req.Token, "unknown session action %q", req.Action)
}

// Controller returns the session id currently holding control (0 =
// vacant).
func (s *Server) Controller() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.controller
}

// SessionIDs returns a snapshot of attached session ids in attach
// order.
func (s *Server) SessionIDs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.order))
	copy(out, s.order)
	return out
}

func (s *Server) handleWatch(sess *Session, req *proto.Request) *proto.Response {
	switch req.Action {
	case "add":
		// AddWatch probes the backend to resolve names: query queue.
		return s.controlledQuery(sess, req.Token, func() *proto.Response {
			id, err := s.rt.AddWatch(req.Instance, req.Expression)
			if err != nil {
				return proto.Error(req.Token, "%v", err)
			}
			resp, _ := proto.OK(req.Token, map[string]any{"id": id})
			return resp
		})
	case "remove":
		return s.withControl(sess, req.Token, func() *proto.Response {
			if !s.rt.RemoveWatch(req.WatchID) {
				return proto.Error(req.Token, "no watchpoint %d", req.WatchID)
			}
			resp, _ := proto.OK(req.Token, nil)
			return resp
		})
	case "list":
		type wire struct {
			ID       int    `json:"id"`
			Instance string `json:"instance"`
			Expr     string `json:"expr"`
		}
		var out []wire
		for _, w := range s.rt.Watches() {
			out = append(out, wire{ID: w.ID, Instance: w.Instance, Expr: w.Expr})
		}
		resp, _ := proto.OK(req.Token, out)
		return resp
	}
	return proto.Error(req.Token, "unknown watch action %q", req.Action)
}

func (s *Server) handleBreakpoint(sess *Session, req *proto.Request) *proto.Response {
	switch req.Action {
	case "add":
		// AddBreakpoint probes the backend while resolving condition
		// dependencies: query queue.
		return s.controlledQuery(sess, req.Token, func() *proto.Response {
			ids, err := s.rt.AddBreakpoint(req.Filename, req.Line, req.Condition)
			if err != nil {
				return proto.Error(req.Token, "%v", err)
			}
			resp, _ := proto.OK(req.Token, map[string]any{"ids": ids})
			return resp
		})
	case "remove":
		return s.withControl(sess, req.Token, func() *proto.Response {
			n := s.rt.RemoveBreakpoint(req.Filename, req.Line)
			resp, _ := proto.OK(req.Token, map[string]any{"removed": n})
			return resp
		})
	case "clear":
		return s.withControl(sess, req.Token, func() *proto.Response {
			s.rt.ClearBreakpoints()
			resp, _ := proto.OK(req.Token, nil)
			return resp
		})
	case "list":
		var infos []proto.BreakpointInfo
		for _, bp := range s.rt.ListBreakpoints() {
			infos = append(infos, proto.BreakpointInfo{
				ID: bp.ID, Filename: bp.Filename, Line: bp.Line,
				Instance: bp.InstanceName, Enable: bp.Enable, EnableSrc: bp.EnableSrc,
			})
		}
		resp, _ := proto.OK(req.Token, infos)
		return resp
	}
	return proto.Error(req.Token, "unknown breakpoint action %q", req.Action)
}

func (s *Server) handleCommand(sess *Session, req *proto.Request) *proto.Response {
	if req.Command == "pause" {
		return s.withControl(sess, req.Token, func() *proto.Response {
			s.rt.InterruptNext()
			resp, _ := proto.OK(req.Token, nil)
			return resp
		})
	}
	cmd, err := proto.ParseCommand(req.Command)
	if err != nil {
		return proto.Error(req.Token, "%v", err)
	}
	if cmd == core.CmdReverseContinue && !s.reverse {
		// Refused up front: on a backend that cannot seek, the walk
		// would degrade to a reverse step left armed for the next
		// cycle instead of reaching the previous hit. The stop stays
		// parked.
		return proto.Error(req.Token, "backend cannot travel backwards (live simulation; use a replay trace)")
	}
	// Control check and resume are one critical section: a session
	// that lost control a moment ago must not resume the simulation
	// out from under the new controller.
	return s.withControl(sess, req.Token, func() *proto.Response {
		if !s.sendResumeLocked(cmd) {
			return proto.Error(req.Token, "not stopped at a breakpoint")
		}
		resp, _ := proto.OK(req.Token, nil)
		return resp
	})
}

func (s *Server) handleInfo(req *proto.Request) *proto.Response {
	switch req.Topic {
	case "files":
		resp, _ := proto.OK(req.Token, s.rt.Table().Files())
		return resp
	case "lines":
		resp, _ := proto.OK(req.Token, s.rt.Table().Lines(req.Filename))
		return resp
	case "instances":
		resp, _ := proto.OK(req.Token, s.rt.Table().Instances())
		return resp
	case "status":
		// Time lives in simulation state: query queue.
		return s.runQuery(req.Token, func() *proto.Response {
			evals, stops := s.rt.Stats()
			resp, _ := proto.OK(req.Token, map[string]any{
				"time":    s.rt.Backend().Time(),
				"evals":   evals,
				"stops":   stops,
				"mode":    s.rt.Table().Mode(),
				"reverse": s.reverse,
			})
			return resp
		})
	}
	return proto.Error(req.Token, "unknown info topic %q", req.Topic)
}

// String describes the server.
func (s *Server) String() string {
	if s.ln == nil {
		return "hgdb server (not listening)"
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return fmt.Sprintf("hgdb server on %s (%d sessions)", s.ln.Addr(), n)
}
