// Package proto defines the JSON debugging protocol spoken between the
// hgdb runtime and debugger clients over WebSocket — the paper's
// "RPC-based debugging protocol similar to the gdb remote protocol"
// (§3.5). Every request carries a token echoed in its response; stop
// events arrive unsolicited whenever a breakpoint hits.
package proto

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/val"
)

// Request is a client → runtime message.
type Request struct {
	// Type selects the operation: "breakpoint", "command", "evaluate",
	// "get-value", "set-value", "info", "watch", "session", "ack",
	// "runtimes" (hub control sessions only).
	Type string `json:"type"`
	// Token is echoed in the response for matching. "ack" requests are
	// fire-and-forget: they carry no token and get no response.
	Token string `json:"token,omitempty"`

	// breakpoint fields (Action: add | remove | clear | list);
	// session fields (Action: list | release | claim)
	Action    string `json:"action,omitempty"`
	Filename  string `json:"filename,omitempty"`
	Line      int    `json:"line,omitempty"`
	Condition string `json:"condition,omitempty"`

	// command field: continue | step | reverse-step | reverse-continue
	// | detach | pause. reverse-continue needs a backend that can travel
	// backwards (replay).
	Command string `json:"command,omitempty"`

	// evaluate fields
	Instance   string `json:"instance,omitempty"`
	Expression string `json:"expression,omitempty"`

	// value fields
	Path  string `json:"path,omitempty"`
	Value uint64 `json:"value,omitempty"`

	// info field: files | lines | instances | status
	Topic string `json:"topic,omitempty"`

	// watch fields (Action: add | remove | list; Expression + Instance
	// for add, WatchID for remove)
	WatchID int `json:"watch_id,omitempty"`

	// AckSeq acknowledges receipt of the stop event broadcast with that
	// sequence number ("ack" requests). The server may encode later
	// stops as deltas against the acknowledged snapshot; AckSeq 0
	// resets the session to full frames (client-requested resync).
	AckSeq uint64 `json:"ack_seq,omitempty"`

	// runtimes fields (Action: list | launch | evict), valid on hub
	// control sessions. Runtime names the target runtime for evict;
	// Spec describes the runtime to launch.
	Runtime string       `json:"runtime,omitempty"`
	Spec    *RuntimeSpec `json:"spec,omitempty"`
}

// RuntimeSpec describes one runtime for the hub's registry to launch:
// either a live simulation of a packaged design or a replay of a
// recorded trace (raw VCD text or a pre-indexed store file).
type RuntimeSpec struct {
	// Name is the requested runtime id; the hub generates one when
	// empty and rejects a launch whose name is already registered.
	Name string `json:"name,omitempty"`
	// Kind selects the backend: "sim" (live simulation) or "replay".
	Kind string `json:"kind"`
	// Design names the packaged design for sim runtimes ("counter",
	// "fpu"); Debug selects the unoptimized build.
	Design string `json:"design,omitempty"`
	Debug  bool   `json:"debug,omitempty"`
	// VCD/Symtab locate the trace and symbol table for replay runtimes.
	// The symbol table loads through the hub's shared content-keyed
	// cache, so N replays of the same design parse it once.
	VCD    string `json:"vcd,omitempty"`
	Symtab string `json:"symtab,omitempty"`
}

// Runtime lifecycle states, surfaced in RuntimeInfo listings. A
// runtime is launching while its backend is being built, serving once
// its session manager accepts attaches, draining from the moment an
// evict begins until its sessions have flushed their goodbyes, and
// dead once its simulation goroutine has exited and its resources
// (including shared symbol-table references) are released.
const (
	RuntimeLaunching = "launching"
	RuntimeServing   = "serving"
	RuntimeDraining  = "draining"
	RuntimeDead      = "dead"
)

// RuntimeInfo is the wire form of one registered runtime, returned by
// the "runtimes" request's "list" action and by "launch".
type RuntimeInfo struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`  // "sim" | "replay"
	State string `json:"state"` // launching | serving | draining | dead
	// Top/Mode mirror the runtime's welcome payload; Reverse reports
	// whether the backend supports reverse execution.
	Top     string `json:"top,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Reverse bool   `json:"reverse,omitempty"`
	// Source echoes where the runtime came from (design name or trace
	// path).
	Source string `json:"source,omitempty"`
	// Sessions is the number of attached debugger sessions; Controller
	// is the session currently holding control (0 = vacant).
	Sessions   int   `json:"sessions"`
	Controller int64 `json:"controller,omitempty"`
	// UptimeSec is how long the runtime has been registered.
	UptimeSec float64 `json:"uptime_sec,omitempty"`
	// SymtabShared reports that the runtime's symbol table came out of
	// the hub's shared cache as a hit (another runtime had already
	// loaded identical content).
	SymtabShared bool `json:"symtab_shared,omitempty"`
}

// Response is a runtime → client reply.
type Response struct {
	Type   string          `json:"type"` // always "response"
	Token  string          `json:"token,omitempty"`
	Status string          `json:"status"` // ok | error
	Reason string          `json:"reason,omitempty"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// Event is an unsolicited runtime → client message. Broadcast kinds:
//
//   - "welcome": sent to a session right after it attaches; carries its
//     id and role plus the design summary.
//   - "attach"/"goodbye": a peer session joined/left (SessionID is the
//     peer; Controller reflects any resulting handoff).
//   - "control": control of the runtime moved to session Controller
//     (Reason: "release" | "disconnect" | "claim" | "shutdown").
//   - "stop": a breakpoint/watch/step stop; delivered to every session.
//     Carries either the full Stop payload or a Delta against the
//     session's last-acknowledged stop (sessions that negotiated delta
//     frames at attach).
//   - "resume": the simulation left a stop (Command says how). Together
//     with "stop" these form the sim-state event class: a session's
//     queue holds at most one pending sim-state event — a newer one
//     supersedes it (coalescing), so a slow observer always sees the
//     latest coherent state rather than an arbitrary surviving prefix.
//   - "hub-welcome": sent to a hub control session right after it
//     attaches to a hub endpoint without naming a runtime; carries the
//     registry size. The session then speaks the "runtimes"
//     list/launch/evict request family.
//   - "disconnect": synthesized locally by the client library when the
//     connection dies — it never travels on the wire.
//
// Seq orders broadcasts: every session observes the same subsequence
// of an identical, strictly increasing sequence (a slow session may
// coalesce or drop events under backpressure, never reorder them).
type Event struct {
	Type string          `json:"type"`
	Seq  uint64          `json:"seq,omitempty"`
	Stop *core.StopEvent `json:"stop,omitempty"`
	// Delta replaces Stop on sessions that negotiated delta frames: the
	// stop is encoded against the session's last-acked snapshot (see
	// StopDelta). Exactly one of Stop/Delta is set on a stop event.
	Delta *StopDelta `json:"delta,omitempty"`
	// Emit is the server wall clock (UnixNano) when the broadcast was
	// encoded — stamped once per broadcast, shared by every recipient.
	// Load harnesses in the same process use it to measure delivery
	// latency; it is advisory otherwise (clocks may differ).
	Emit int64 `json:"emit,omitempty"`
	// Command reports how the simulation resumed ("resume" events):
	// continue | step | reverse-step | reverse-continue | detach.
	Command string `json:"command,omitempty"`
	// Welcome payload
	Top   string `json:"top,omitempty"`
	Mode  string `json:"mode,omitempty"`
	Files int    `json:"files,omitempty"`
	// Reverse reports (in the welcome event) whether the backend can
	// travel backwards in time — true on replay, false on a live
	// simulation. Clients use it to gate reverse-execution UI (the DAP
	// adapter's supportsStepBack capability).
	Reverse bool `json:"reverse,omitempty"`
	// Session payload
	SessionID  int64  `json:"session,omitempty"`
	Role       string `json:"role,omitempty"`
	Controller int64  `json:"controller,omitempty"`
	Peers      int    `json:"peers,omitempty"`
	Reason     string `json:"reason,omitempty"`
	// Runtime is the registry id of the runtime this session is
	// attached to — stamped on welcome and goodbye events by servers
	// running behind a hub, so a client can verify its attach was
	// routed to the runtime it asked for. Empty on standalone servers.
	Runtime string `json:"runtime,omitempty"`
	// Runtimes is the registry size ("hub-welcome" events).
	Runtimes int `json:"runtimes,omitempty"`
}

// Session roles. Exactly one attached session holds control (may
// resume the simulation and mutate state); every other session is an
// observer with read-only access.
const (
	RoleController = "controller"
	RoleObserver   = "observer"
)

// SessionInfo is the wire form of one attached session, returned by
// the "session" request's "list" action.
type SessionInfo struct {
	ID   int64  `json:"id"`
	Role string `json:"role"`
	// Dropped counts broadcast events discarded for this session under
	// backpressure (its outbound queue was full and nothing could be
	// coalesced).
	Dropped uint64 `json:"dropped,omitempty"`
	// Coalesced counts queued events superseded by a newer event of the
	// same class before the session's writer got to them.
	Coalesced uint64 `json:"coalesced,omitempty"`
	// Encoding is the negotiated wire encoding: "json" or "binary".
	Encoding string `json:"encoding,omitempty"`
	// Delta reports whether the session negotiated delta stop frames.
	Delta bool `json:"delta,omitempty"`
	// DeltaFrames/FullFrames count how the session's stop broadcasts
	// were encoded; BytesSent is the payload bytes its writer put on
	// the wire.
	DeltaFrames uint64 `json:"delta_frames,omitempty"`
	FullFrames  uint64 `json:"full_frames,omitempty"`
	BytesSent   uint64 `json:"bytes_sent,omitempty"`
}

// knownRequestTypes is the closed set DecodeRequest accepts.
var knownRequestTypes = map[string]bool{
	"breakpoint": true, "command": true, "evaluate": true,
	"get-value": true, "set-value": true, "info": true,
	"watch": true, "session": true, "ack": true, "runtimes": true,
}

// DecodeRequest parses and validates one wire request. The type must
// be present and known; everything else is operation-specific and left
// to the dispatcher.
func DecodeRequest(raw []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("proto: bad request: %w", err)
	}
	if req.Type == "" {
		return nil, fmt.Errorf("proto: request missing type")
	}
	if !knownRequestTypes[req.Type] {
		return nil, fmt.Errorf("proto: unknown request type %q", req.Type)
	}
	return &req, nil
}

// OK builds a success response with a JSON payload.
func OK(token string, payload any) (*Response, error) {
	var raw json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	return &Response{Type: "response", Token: token, Status: "ok", Data: raw}, nil
}

// Error builds an error response.
func Error(token, format string, args ...any) *Response {
	return &Response{
		Type:   "response",
		Token:  token,
		Status: "error",
		Reason: fmt.Sprintf(format, args...),
	}
}

// ParseCommand converts the wire command to a core.Command.
func ParseCommand(s string) (core.Command, error) {
	switch s {
	case "continue":
		return core.CmdContinue, nil
	case "step":
		return core.CmdStep, nil
	case "reverse-step":
		return core.CmdReverseStep, nil
	case "reverse-continue":
		return core.CmdReverseContinue, nil
	case "detach":
		return core.CmdDetach, nil
	}
	return 0, fmt.Errorf("proto: unknown command %q", s)
}

// CommandString is the inverse of ParseCommand, used to stamp "resume"
// broadcasts with the command that resumed the simulation.
func CommandString(cmd core.Command) string {
	switch cmd {
	case core.CmdContinue:
		return "continue"
	case core.CmdStep:
		return "step"
	case core.CmdReverseStep:
		return "reverse-step"
	case core.CmdReverseContinue:
		return "reverse-continue"
	case core.CmdDetach:
		return "detach"
	}
	return "continue"
}

// BreakpointInfo is the wire form of an armed breakpoint.
type BreakpointInfo struct {
	ID        int64  `json:"id"`
	Filename  string `json:"filename"`
	Line      int    `json:"line"`
	Instance  string `json:"instance"`
	Enable    string `json:"enable,omitempty"`
	EnableSrc string `json:"enable_src,omitempty"`
}

// ValueInfo is the wire form of an evaluated value. Time reports the
// simulation time the value was captured at — for an observer reading
// mid-run, that is the clock edge the query executed on. Display
// carries a rendered Verilog-style literal ("8'b1x0z", "128'hdead…")
// when the value has x/z bits or exceeds 64 bits — Value then holds
// only the low word's known bits; it is empty for plain two-state
// values, whose frames are unchanged from the two-state protocol.
type ValueInfo struct {
	Value   uint64 `json:"value"`
	Width   int    `json:"width"`
	Time    uint64 `json:"time,omitempty"`
	Display string `json:"display,omitempty"`
}

// ValueInfoOf renders a four-state value for the wire: the low word's
// known bits plus, when the uint64 cannot carry the value faithfully,
// the rendered literal.
func ValueInfoOf(b val.Bits, time uint64) ValueInfo {
	vi := ValueInfo{Value: b.V0, Width: b.Width, Time: time}
	if b.HasX() || b.IsWide() {
		vi.Display = b.String()
	}
	return vi
}
