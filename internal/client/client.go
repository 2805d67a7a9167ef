// Package client is the Go client for the hgdb debugging protocol,
// used by the gdb-like CLI (cmd/hgdb) and by integration tests. It
// demultiplexes the WebSocket stream into request/response pairs and
// unsolicited events, tracks this session's id and role as the server
// broadcasts control transfers, and can reconnect to the same
// endpoint after a connection loss.
package client

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/ws"
)

// typedQueueDepth is the buffer of each per-type event queue behind
// WaitEvent/WaitStop. Queues are created at delivery time (so an event
// arriving before its first WaitEvent call is never lost), which means
// a consumer that never waits pays this buffer per event type seen, so
// it stays small.
const typedQueueDepth = 16

// stopCacheDepth is how many applied stop snapshots the client retains
// as delta bases. The server only delta-encodes against seqs this
// client acknowledged, and acks flow in order, so the window just has
// to cover frames in flight — far fewer than this.
const stopCacheDepth = 32

// Options selects the wire features negotiated at attach.
type Options struct {
	// Binary asks the server for the length-prefixed binary event
	// encoding instead of JSON text (requests and responses stay JSON).
	Binary bool
	// Delta opts into delta-encoded stop frames: the client
	// acknowledges each stop it applies and the server encodes later
	// stops against the acknowledged snapshot, falling back to full
	// frames on any ack gap.
	Delta bool
	// Runtime routes the attach through a hub endpoint to the runtime
	// with this registry id (?runtime=<id> on the upgrade URL). Empty
	// attaches directly — a standalone server, or a hub control session.
	Runtime string
}

// Client is one attached debugger session.
type Client struct {
	addr string
	opts Options

	mu      sync.Mutex
	conn    *ws.Conn
	closed  chan struct{} // closed when the current conn's read loop exits
	nextTok int
	waiting map[string]chan *proto.Response

	// session state, maintained from welcome/control/goodbye events
	sessionID  int64
	role       string
	controller int64

	// Delta reconstruction state (Options.Delta): recently applied stop
	// snapshots by broadcast seq, evicted FIFO past stopCacheDepth.
	stopCache map[uint64]*core.StopEvent
	stopRing  []uint64
	resyncs   uint64

	// Event demultiplexing. Every inbound event is delivered to two
	// kinds of consumer: a per-type queue (auto-created at delivery, so
	// an event arriving before its first WaitEvent call is never lost)
	// and every matching Subscription. Waiting for one event type
	// therefore never consumes — and silently drops — interleaved
	// events of other types.
	subs    map[int]*Subscription
	nextSub int
	typed   map[string]*Subscription
}

// New creates a client without connecting, so consumers can Subscribe
// before the first byte arrives (an event delivered during the welcome
// exchange — e.g. the stop replay a late attacher receives — is then
// never missed). Call Connect to attach.
func New(addr string) *Client {
	return NewOpts(addr, Options{})
}

// NewOpts is New with wire options (binary encoding, delta frames).
func NewOpts(addr string, opts Options) *Client {
	return &Client{
		addr:    addr,
		opts:    opts,
		waiting: map[string]chan *proto.Response{},
		subs:    map[int]*Subscription{},
		typed:   map[string]*Subscription{},
	}
}

// Dial attaches to a runtime at ws://addr.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, Options{})
}

// DialOpts is Dial with wire options (binary encoding, delta frames).
func DialOpts(addr string, opts Options) (*Client, error) {
	c := NewOpts(addr, opts)
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Connect attaches a client created by New. Use Reconnect after a
// connection loss.
func (c *Client) Connect() error { return c.connect() }

// Subscription is one demultiplexed view of the client's event stream,
// created by Subscribe. C stays open across disconnects (a synthesized
// {Type: "disconnect"} event arrives instead — delivered to every
// subscription regardless of its type filter, so filtered consumers
// still observe termination — and the subscription keeps working after
// Reconnect). C closes only on Close.
type Subscription struct {
	// C delivers matching events in arrival order. When the consumer
	// falls behind, normal events are dropped at the full buffer; the
	// disconnect sentinel instead evicts the oldest queued event, so it
	// is never lost.
	C chan *proto.Event

	c     *Client
	id    int
	types map[string]bool // nil = every type
}

// Subscribe registers an event consumer for the given types (none =
// every type). buffer <= 0 selects a default.
func (c *Client) Subscribe(buffer int, types ...string) *Subscription {
	if buffer <= 0 {
		buffer = 16
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := &Subscription{C: make(chan *proto.Event, buffer), c: c, id: c.nextSub}
	c.nextSub++
	if len(types) > 0 {
		sub.types = make(map[string]bool, len(types))
		for _, t := range types {
			sub.types[t] = true
		}
	}
	c.subs[sub.id] = sub
	return sub
}

// Close removes the subscription and closes C.
func (s *Subscription) Close() {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if _, ok := s.c.subs[s.id]; !ok {
		return
	}
	delete(s.c.subs, s.id)
	close(s.C)
}

// typedLocked returns (creating on demand) the internal per-type queue
// feeding WaitEvent/WaitStop. Callers hold c.mu.
func (c *Client) typedLocked(typ string) *Subscription {
	sub, ok := c.typed[typ]
	if !ok {
		sub = &Subscription{C: make(chan *proto.Event, typedQueueDepth), c: c}
		c.typed[typ] = sub
	}
	return sub
}

// deliverLocked routes one event to every consumer. Callers hold c.mu
// — the single-producer guarantee that makes the eviction path below
// reliable. Normal events are dropped at a full consumer (the server
// already coalesces under backpressure and the simulator stays paused
// until a command arrives); the disconnect sentinel is the one event
// no consumer may miss, so it evicts the oldest queued event instead.
func (c *Client) deliverLocked(ev *proto.Event) {
	mustDeliver := ev.Type == "disconnect"
	push := func(ch chan *proto.Event) {
		select {
		case ch <- ev:
			return
		default:
		}
		if !mustDeliver {
			return
		}
		select {
		case <-ch:
		default:
		}
		select {
		case ch <- ev:
		default:
		}
	}
	push(c.typedLocked(ev.Type).C)
	for _, sub := range c.subs {
		// The sentinel bypasses type filters: every subscription is
		// promised a termination signal, or a consumer ranging over a
		// filtered sub.C would hang forever after a connection loss.
		if mustDeliver || sub.types == nil || sub.types[ev.Type] {
			push(sub.C)
		}
	}
}

// connect dials and starts a read loop for one connection generation.
// The wire negotiation rides the upgrade URL's query string.
func (c *Client) connect() error {
	q := url.Values{}
	if c.opts.Binary {
		q.Set("enc", "binary")
	}
	if c.opts.Delta {
		q.Set("delta", "1")
	}
	if c.opts.Runtime != "" {
		q.Set("runtime", c.opts.Runtime)
	}
	target := "ws://" + c.addr + "/"
	if enc := q.Encode(); enc != "" {
		target += "?" + enc
	}
	conn, err := ws.Dial(target)
	if err != nil {
		return err
	}
	// Bound every frame write (and the close handshake) so a wedged
	// server fails requests instead of blocking roundTrip forever
	// before its 30s timer even starts.
	conn.SetWriteTimeout(10 * time.Second)
	conn.SetCloseTimeout(2 * time.Second)
	closed := make(chan struct{})
	c.mu.Lock()
	c.conn = conn
	c.closed = closed
	c.mu.Unlock()
	go c.readLoop(conn, closed)
	return nil
}

// Reconnect re-attaches to the same endpoint after a connection loss.
// The server assigns a fresh session id and role (broadcast state such
// as armed breakpoints lives in the runtime and survives). Safe to
// call after a subscription delivered a "disconnect" event.
func (c *Client) Reconnect() error {
	// Detach the old connection first: once c.conn no longer points at
	// it, its read loop's teardown knows it is stale and will neither
	// wipe the new generation's waiters nor emit a disconnect event.
	c.mu.Lock()
	old := c.conn
	c.conn = nil
	c.sessionID, c.role, c.controller = 0, "", 0
	// Abandon the old generation's in-flight requests: their reply
	// tokens belong to the dead connection.
	c.waiting = map[string]chan *proto.Response{}
	// Delta bases are per-session: the new session starts on full
	// frames (its lastAck is 0 server-side) and refills the cache.
	c.stopCache, c.stopRing = nil, nil
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	// Everything queued for consumers belongs to the dead generation —
	// including a possible disconnect sentinel that would otherwise be
	// mistaken for the new connection failing. Drop it all, under the
	// same lock the sentinel push takes, so a teardown racing this
	// reconnect can never land its sentinel after the drain.
	c.mu.Lock()
	for _, sub := range c.typed {
		drainChan(sub.C)
	}
	for _, sub := range c.subs {
		drainChan(sub.C)
	}
	c.mu.Unlock()
	return c.connect()
}

// Close detaches.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// SessionID returns this session's server-assigned id (0 before the
// welcome event arrives).
func (c *Client) SessionID() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionID
}

// Role returns this session's current role ("controller" or
// "observer"), tracked across control-transfer broadcasts.
func (c *Client) Role() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// Controller returns the session id currently holding control (0 =
// vacant or unknown).
func (c *Client) Controller() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.controller
}

// observeEvent updates session state from an unsolicited event before
// it is handed to the consumer.
func (c *Client) observeEvent(ev *proto.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Type {
	case "welcome":
		c.sessionID = ev.SessionID
		c.role = ev.Role
		c.controller = ev.Controller
	case "attach", "goodbye":
		if ev.Controller != 0 || ev.Type == "goodbye" {
			c.setControllerLocked(ev.Controller)
		}
	case "control":
		c.setControllerLocked(ev.Controller)
	}
}

func (c *Client) setControllerLocked(controller int64) {
	c.controller = controller
	if c.sessionID != 0 {
		if controller == c.sessionID {
			c.role = proto.RoleController
		} else {
			c.role = proto.RoleObserver
		}
	}
}

func drainChan(ch chan *proto.Event) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// inbound is the one decode target of a text frame: every event field
// plus the fields only a response carries (Reason is shared). The read
// loop decodes each frame once and routes it on Type.
type inbound struct {
	proto.Event
	Token  string          `json:"token"`
	Status string          `json:"status"`
	Data   json.RawMessage `json:"data"`
}

func (c *Client) readLoop(conn *ws.Conn, closed chan struct{}) {
	defer func() {
		// Tear down only if this is still the live generation — a
		// Reconnect may have already swapped in a fresh connection,
		// and wiping its waiters or announcing a stale disconnect
		// would sabotage it. The staleness check, the waiter wipe and
		// the sentinel delivery share one critical section with
		// Reconnect's drain, so a racing reconnect can never be
		// poisoned by a sentinel landing after its drain. The sentinel
		// is delivered BEFORE closed is closed: a waiter that observes
		// the closed generation is then guaranteed to find the
		// sentinel already queued.
		c.mu.Lock()
		if c.conn == conn {
			c.waiting = map[string]chan *proto.Response{}
			c.deliverLocked(&proto.Event{Type: "disconnect"})
		}
		c.mu.Unlock()
		close(closed)
	}()
	for {
		op, raw, err := conn.ReadMessage()
		if err != nil {
			return
		}
		var ev *proto.Event
		if op == ws.BinaryMessage {
			// Events on a binary-negotiated session; responses stay
			// JSON text and never arrive as binary frames.
			if ev, err = proto.DecodeBinaryFrame(raw); err != nil {
				continue
			}
		} else {
			in := new(inbound)
			if err := json.Unmarshal(raw, in); err != nil {
				continue
			}
			if in.Type == "response" {
				c.mu.Lock()
				ch := c.waiting[in.Token]
				delete(c.waiting, in.Token)
				c.mu.Unlock()
				if ch != nil {
					ch <- &proto.Response{Type: in.Type, Token: in.Token,
						Status: in.Status, Reason: in.Reason, Data: in.Data}
				}
				continue
			}
			ev = &in.Event
		}
		if ev.Type == "stop" && c.opts.Delta {
			if !c.resolveStop(conn, ev) {
				continue
			}
		}
		c.observeEvent(ev)
		c.mu.Lock()
		if c.conn == conn {
			c.deliverLocked(ev)
		}
		c.mu.Unlock()
	}
}

// resolveStop reconstructs a delta-encoded stop against the cached
// base snapshot, remembers the result as a future base, and
// acknowledges it to the server (which unlocks delta encoding for the
// next stop). A delta whose base is no longer cached — possible only
// when more frames were in flight than the cache holds — requests a
// full-frame resync with ack 0; that stop is lost to this session,
// exactly like a coalesced-away one. Returns whether the event now
// carries a full Stop payload to deliver.
func (c *Client) resolveStop(conn *ws.Conn, ev *proto.Event) bool {
	if ev.Delta != nil {
		c.mu.Lock()
		base := c.stopCache[ev.Delta.BaseSeq]
		c.mu.Unlock()
		var st *core.StopEvent
		var err error
		if base != nil {
			st, err = proto.ApplyStop(base, ev.Delta)
		}
		if base == nil || err != nil {
			c.mu.Lock()
			c.resyncs++
			c.stopCache, c.stopRing = nil, nil
			c.mu.Unlock()
			c.sendAck(conn, 0)
			return false
		}
		ev.Stop, ev.Delta = st, nil
	}
	if ev.Stop == nil {
		return false
	}
	if ev.Seq != 0 {
		c.mu.Lock()
		if c.stopCache == nil {
			c.stopCache = map[uint64]*core.StopEvent{}
		}
		c.stopCache[ev.Seq] = ev.Stop
		c.stopRing = append(c.stopRing, ev.Seq)
		if len(c.stopRing) > stopCacheDepth {
			delete(c.stopCache, c.stopRing[0])
			c.stopRing = c.stopRing[1:]
		}
		c.mu.Unlock()
		c.sendAck(conn, ev.Seq)
	}
	return true
}

// sendAck emits the fire-and-forget stop acknowledgement (no token, no
// response). Runs on the reader goroutine; the ws layer serializes
// writes against concurrent requests.
func (c *Client) sendAck(conn *ws.Conn, seq uint64) {
	msg, err := json.Marshal(&proto.Request{Type: "ack", AckSeq: seq})
	if err != nil {
		return
	}
	conn.WriteText(msg)
}

// Resyncs reports how many times this session fell back to a
// full-frame resync because a delta's base was no longer cached.
func (c *Client) Resyncs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resyncs
}

// roundTrip sends a request and waits for its response.
func (c *Client) roundTrip(req *proto.Request) (*proto.Response, error) {
	c.mu.Lock()
	conn, closed := c.conn, c.closed
	if conn == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("hgdb: not connected")
	}
	c.nextTok++
	req.Token = strconv.Itoa(c.nextTok)
	ch := make(chan *proto.Response, 1)
	c.waiting[req.Token] = ch
	c.mu.Unlock()

	// Any exit that is not a delivered response must retire the waiter,
	// or timed-out/failed requests leak map entries for the life of
	// the connection.
	abandon := func() {
		c.mu.Lock()
		delete(c.waiting, req.Token)
		c.mu.Unlock()
	}
	msg, err := json.Marshal(req)
	if err != nil {
		abandon()
		return nil, err
	}
	if err := conn.WriteText(msg); err != nil {
		abandon()
		return nil, err
	}
	select {
	case resp := <-ch:
		if resp.Status != "ok" {
			return resp, fmt.Errorf("hgdb: %s", resp.Reason)
		}
		return resp, nil
	case <-closed:
		abandon()
		return nil, fmt.Errorf("hgdb: connection closed")
	case <-time.After(30 * time.Second):
		abandon()
		return nil, fmt.Errorf("hgdb: request timed out")
	}
}

// AddBreakpoint arms breakpoints at file:line with an optional
// condition and returns the armed ids.
func (c *Client) AddBreakpoint(file string, line int, cond string) ([]int64, error) {
	resp, err := c.roundTrip(&proto.Request{
		Type: "breakpoint", Action: "add",
		Filename: file, Line: line, Condition: cond,
	})
	if err != nil {
		return nil, err
	}
	var data struct {
		IDs []int64 `json:"ids"`
	}
	if err := json.Unmarshal(resp.Data, &data); err != nil {
		return nil, err
	}
	return data.IDs, nil
}

// RemoveBreakpoint disarms breakpoints at file:line.
func (c *Client) RemoveBreakpoint(file string, line int) (int, error) {
	resp, err := c.roundTrip(&proto.Request{
		Type: "breakpoint", Action: "remove", Filename: file, Line: line,
	})
	if err != nil {
		return 0, err
	}
	var data struct {
		Removed int `json:"removed"`
	}
	if err := json.Unmarshal(resp.Data, &data); err != nil {
		return 0, err
	}
	return data.Removed, nil
}

// ListBreakpoints returns the armed breakpoints.
func (c *Client) ListBreakpoints() ([]proto.BreakpointInfo, error) {
	resp, err := c.roundTrip(&proto.Request{Type: "breakpoint", Action: "list"})
	if err != nil {
		return nil, err
	}
	var infos []proto.BreakpointInfo
	if len(resp.Data) > 0 {
		if err := json.Unmarshal(resp.Data, &infos); err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// ClearBreakpoints disarms everything.
func (c *Client) ClearBreakpoints() error {
	_, err := c.roundTrip(&proto.Request{Type: "breakpoint", Action: "clear"})
	return err
}

// Command resumes a stopped simulation: continue, step, reverse-step,
// reverse-continue (replay backends only), detach, pause. Requires
// control.
func (c *Client) Command(cmd string) error {
	_, err := c.roundTrip(&proto.Request{Type: "command", Command: cmd})
	return err
}

// Evaluate computes a watch expression in an instance context.
// Observers may evaluate while the simulation is running; the value
// is captured at a clock edge.
func (c *Client) Evaluate(instance, expression string) (proto.ValueInfo, error) {
	resp, err := c.roundTrip(&proto.Request{
		Type: "evaluate", Instance: instance, Expression: expression,
	})
	if err != nil {
		return proto.ValueInfo{}, err
	}
	var v proto.ValueInfo
	if err := json.Unmarshal(resp.Data, &v); err != nil {
		return proto.ValueInfo{}, err
	}
	return v, nil
}

// GetValue fetches a signal by full or symtab-relative path. Works
// for observers mid-run (edge-captured, see Evaluate).
func (c *Client) GetValue(path string) (proto.ValueInfo, error) {
	resp, err := c.roundTrip(&proto.Request{Type: "get-value", Path: path})
	if err != nil {
		return proto.ValueInfo{}, err
	}
	var v proto.ValueInfo
	if err := json.Unmarshal(resp.Data, &v); err != nil {
		return proto.ValueInfo{}, err
	}
	return v, nil
}

// SetValue deposits a value into the design. Requires control.
func (c *Client) SetValue(path string, v uint64) error {
	_, err := c.roundTrip(&proto.Request{Type: "set-value", Path: path, Value: v})
	return err
}

// Info queries runtime metadata; topic is files | lines | instances |
// status.
func (c *Client) Info(topic, filename string) (json.RawMessage, error) {
	resp, err := c.roundTrip(&proto.Request{Type: "info", Topic: topic, Filename: filename})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Sessions lists every attached session with its role and dropped
// event count.
func (c *Client) Sessions() ([]proto.SessionInfo, error) {
	resp, err := c.roundTrip(&proto.Request{Type: "session", Action: "list"})
	if err != nil {
		return nil, err
	}
	var infos []proto.SessionInfo
	if len(resp.Data) > 0 {
		if err := json.Unmarshal(resp.Data, &infos); err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// Release hands control to the oldest observer (or leaves it vacant
// when this is the only session). Requires control.
func (c *Client) Release() error {
	_, err := c.roundTrip(&proto.Request{Type: "session", Action: "release"})
	return err
}

// Claim takes control when it is vacant.
func (c *Client) Claim() error {
	_, err := c.roundTrip(&proto.Request{Type: "session", Action: "claim"})
	return err
}

// AddWatch sets a data watchpoint on an expression in an instance
// context; stops fire whenever the value changes. Requires control.
func (c *Client) AddWatch(instance, expression string) (int, error) {
	resp, err := c.roundTrip(&proto.Request{
		Type: "watch", Action: "add", Instance: instance, Expression: expression,
	})
	if err != nil {
		return 0, err
	}
	var data struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(resp.Data, &data); err != nil {
		return 0, err
	}
	return data.ID, nil
}

// RemoveWatch deletes a watchpoint by id. Requires control.
func (c *Client) RemoveWatch(id int) error {
	_, err := c.roundTrip(&proto.Request{Type: "watch", Action: "remove", WatchID: id})
	return err
}

// WaitStop blocks until the next stop event or timeout. Unlike the
// pre-demux implementation it does not consume events of other types —
// they stay queued for their own waiters and subscriptions.
func (c *Client) WaitStop(timeout time.Duration) (*core.StopEvent, error) {
	ev, err := c.WaitEvent("stop", timeout)
	if err != nil {
		return nil, err
	}
	if ev.Stop == nil {
		return nil, fmt.Errorf("hgdb: malformed stop event")
	}
	return ev.Stop, nil
}

// WaitEvent blocks until the next event of the given type or timeout.
// It reads the client's per-type queue, so events of other types are
// neither consumed nor dropped while waiting; an event of the wanted
// type that arrived before this call is returned immediately.
func (c *Client) WaitEvent(typ string, timeout time.Duration) (*proto.Event, error) {
	c.mu.Lock()
	sub := c.typedLocked(typ)
	closed := c.closed // nil before the first connect: blocks in select
	c.mu.Unlock()
	// Fast path: already queued (delivered before this call, possibly
	// right before a disconnect).
	select {
	case ev := <-sub.C:
		return ev, nil
	default:
	}
	select {
	case ev := <-sub.C:
		return ev, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("hgdb: no %s event within %s", typ, timeout)
	case <-closed:
		// The connection died. Anything delivered before the teardown
		// — including the disconnect sentinel itself — is still
		// queued, because the sentinel lands before closed closes.
		select {
		case ev := <-sub.C:
			return ev, nil
		default:
		}
		return nil, fmt.Errorf("hgdb: connection closed")
	}
}
