package dap

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"path"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proto"
)

// Options configures an Adapter. The wire of the adapter's hgdb session
// is not configurable: it always negotiates binary event frames (see
// Adapter).
type Options struct {
	// Addr is the hgdb debug server (host:port) to attach to.
	Addr string
	// Hub marks Addr as a hub endpoint: the runtime session is not
	// dialed at construction but bound by the launch request (which
	// registers a runtime from its spec arguments) or the attach
	// request (which names an existing one via "runtime").
	Hub bool
	// Logger receives adapter diagnostics; nil is silent.
	Logger *log.Logger
	// DialTimeout bounds the attach handshake (welcome + symbol table
	// queries); 0 selects a default.
	DialTimeout time.Duration
}

// Adapter is one DAP session bridged onto one hgdb debugger session.
// The editor side speaks DAP's JSON. The hgdb session negotiates the
// binary event encoding with full stop frames (client.Options{Binary:
// true}): every stop the editor is shown arrives as one
// proto.DecodeBinaryFrame pass instead of two JSON decodes, and
// requests and responses stay JSON. Delta frames stay off, since
// consecutive steps land on different statements and would travel as
// full frames plus an ack each.
//
// The lifecycle mapping:
//
//	initialize        → capabilities (supportsStepBack iff replay)
//	launch / attach   → already-dialed hgdb session acknowledged,
//	                    "initialized" event emitted; in hub mode the
//	                    session is bound here instead — launch
//	                    registers a hub runtime from its spec
//	                    arguments, attach names an existing one, and a
//	                    capabilities event re-announces
//	                    supportsStepBack before initialized; arguments
//	                    that do not decode fail the request
//	setBreakpoints    → replace-per-source diffed onto add/remove,
//	                    verified against the symbol table's line set
//	configurationDone → acknowledged
//	threads           → design instances (paper Fig. 4 B)
//	stackTrace        → the one generator-statement frame per stopped
//	                    instance
//	scopes/variables  → Locals + Generator variables through the
//	                    variablesReference handle table
//	evaluate          → the runtime's four-state EvaluateBits
//	continue/next     → continue / step commands; on a trace they end
//	                    at its last enabled statement
//	pause             → interrupt at the next statement
//	stepBack          → reverse-step (replay backends only)
//	reverseContinue   → reverse-continue (replay backends only): the
//	                    runtime walks back to the previous armed hit,
//	                    or to the trace's entry in cycle 0
//	disconnect        → hgdb session closed; the runtime survives for
//	                    other sessions
//
// Unsolicited runtime events translate on the event pump: broadcast
// stops become "stopped" events with reason breakpoint / step / pause
// / entry / end / data breakpoint, resumes this adapter issues become
// "continued", and losing the hgdb session becomes "terminated".
type Adapter struct {
	conn *Conn
	opts Options
	cl   *client.Client
	sub  *client.Subscription

	// hubRuntime is the registry id this adapter bound to (hub mode);
	// empty until launch/attach. cl is nil exactly while it is empty.
	hubRuntime string

	mu       sync.Mutex
	top      string
	mode     string
	reverse  bool
	files    []string
	lineBase int // client's line numbering origin (DAP default 1)

	threadID  map[string]int // instance path → DAP thread id
	instances []string       // thread id-1 → instance path

	lastStop  *core.StopEvent
	lastEvent StoppedEvent // the stopped event emitted for lastStop (for rollback re-announcement)
	stopped   bool
	pauseReq  bool // a pause was requested; next step stop reports "pause"
	// resuming is the hgdb resume command in flight ("" = none; a hub
	// launch's first run counts as a continue): a step stop landing
	// under reverse-continue is the trace's entry, a reverse step stop
	// landing under continue or step its end.
	resuming string

	handles *handleTable

	armed    map[string]map[int]*armedLine // symtab file → line → armed state
	armedIDs map[int64]bool                // armed hgdb breakpoint ids
}

// armedLine is the adapter-side record of one armed source line.
type armedLine struct {
	ids  []int64
	cond string
}

// New dials the hgdb server and binds the adapter to one DAP byte
// stream (stdio, a TCP connection, or an in-memory pipe in tests).
// The hgdb handshake happens here so the initialize response can
// advertise reverse-execution capability truthfully.
//
// In hub mode the runtime isn't known yet — the dial is deferred to
// the launch/attach request and capabilities are re-announced with a
// DAP capabilities event once the backend's nature is known.
func New(rw io.ReadWriter, opts Options) (*Adapter, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	a := &Adapter{
		conn:     NewConn(rw),
		opts:     opts,
		lineBase: 1,
		threadID: map[string]int{},
		handles:  newHandleTable(),
		armed:    map[string]map[int]*armedLine{},
		armedIDs: map[int64]bool{},
	}
	if opts.Hub {
		return a, nil
	}
	if err := a.dial(""); err != nil {
		return nil, fmt.Errorf("dap: attach %s: %w", opts.Addr, err)
	}
	return a, nil
}

// dial opens the adapter's hgdb session on the standalone server, or on
// one hub runtime when runtime is set, and loads its symbols. Both
// modes negotiate the same wire: binary event frames, full stops only.
func (a *Adapter) dial(runtime string) error {
	cl := client.NewOpts(a.opts.Addr, client.Options{Binary: true, Runtime: runtime})
	// Subscribe before connecting: a stop replayed to a late attacher
	// arrives right after the welcome and must reach the pump.
	sub := cl.Subscribe(64, "stop", "goodbye", "disconnect")
	if err := cl.Connect(); err != nil {
		return err
	}
	welcome, err := cl.WaitEvent("welcome", a.opts.DialTimeout)
	if err != nil {
		cl.Close()
		return fmt.Errorf("no welcome: %w", err)
	}
	a.mu.Lock()
	a.top, a.mode, a.reverse = welcome.Top, welcome.Mode, welcome.Reverse
	a.mu.Unlock()
	a.cl, a.sub = cl, sub
	if err := a.loadSymbols(); err != nil {
		cl.Close()
		a.cl, a.sub = nil, nil
		return err
	}
	return nil
}

// bindHub resolves a hub-mode launch/attach to one registry runtime
// and opens the debugger session on it: launch registers a runtime
// from the spec-shaped arguments first, attach names an existing one.
// The session is dialed as in New's standalone path, then the event
// pump starts.
func (a *Adapter) bindHub(command string, args AttachArguments) error {
	if a.cl != nil {
		// Already bound (editors may retry launch after initialize);
		// re-binding to a different runtime mid-session is not a thing.
		if args.Runtime != "" && args.Runtime != a.hubRuntime {
			return fmt.Errorf("adapter is bound to runtime %q; open a new session for %q", a.hubRuntime, args.Runtime)
		}
		return nil
	}
	hc, err := client.DialHub(a.opts.Addr)
	if err != nil {
		return fmt.Errorf("hub %s: %w", a.opts.Addr, err)
	}
	defer hc.Close()
	id := args.Runtime
	if command == "launch" {
		spec := proto.RuntimeSpec{
			Name:   args.Name,
			Kind:   args.Kind,
			Design: args.Design,
			Debug:  args.Debug,
			VCD:    args.VCD,
			Symtab: args.Symtab,
		}
		if spec.Kind == "" {
			spec.Kind = "sim"
		}
		info, err := hc.Launch(spec)
		if err != nil {
			return fmt.Errorf("launch runtime: %w", err)
		}
		id = info.ID
	}
	if id == "" {
		return fmt.Errorf(`attach needs a "runtime" id (see the runtimes listing)`)
	}
	if err := a.dial(id); err != nil {
		return fmt.Errorf("attach runtime %s: %w", id, err)
	}
	if command == "launch" {
		// A launched runtime is fresh: its first stop ends a forward
		// run, which may reach the end of a trace.
		a.mu.Lock()
		a.resuming = "continue"
		a.mu.Unlock()
	}
	a.hubRuntime = id
	go a.pump()
	return nil
}

// loadSymbols fetches the file list and instance set once at attach;
// instances get stable DAP thread ids in sorted order.
func (a *Adapter) loadSymbols() error {
	raw, err := a.cl.Info("files", "")
	if err != nil {
		return fmt.Errorf("dap: info files: %w", err)
	}
	if err := json.Unmarshal(raw, &a.files); err != nil {
		return fmt.Errorf("dap: info files: %w", err)
	}
	raw, err = a.cl.Info("instances", "")
	if err != nil {
		return fmt.Errorf("dap: info instances: %w", err)
	}
	var instances []string
	if err := json.Unmarshal(raw, &instances); err != nil {
		return fmt.Errorf("dap: info instances: %w", err)
	}
	sort.Strings(instances)
	a.mu.Lock()
	for _, inst := range instances {
		a.ensureThreadLocked(inst)
	}
	a.mu.Unlock()
	return nil
}

func (a *Adapter) ensureThreadLocked(instance string) int {
	if id, ok := a.threadID[instance]; ok {
		return id
	}
	a.instances = append(a.instances, instance)
	id := len(a.instances)
	a.threadID[instance] = id
	return id
}

func (a *Adapter) instanceByID(id int) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id < 1 || id > len(a.instances) {
		return "", false
	}
	return a.instances[id-1], true
}

func (a *Adapter) logf(format string, args ...any) {
	if a.opts.Logger != nil {
		a.opts.Logger.Printf(format, args...)
	}
}

// Serve runs the adapter until the DAP peer disconnects. It owns the
// request loop; the event pump runs alongside and is torn down when
// the hgdb session ends.
func (a *Adapter) Serve() error {
	defer func() {
		// Hub mode may end without ever binding a runtime.
		if a.cl != nil {
			a.cl.Close()
		}
	}()
	if a.cl != nil {
		go a.pump()
	}
	for {
		msg, err := a.conn.ReadMessage()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if msg.Type != "request" {
			continue
		}
		a.handleRequest(msg)
	}
}

// handleRequest dispatches one request and sends its response. Every
// handler error becomes a failure response; the initialized event is
// sent after its response, while resume handlers emit continued before
// theirs (see resume for why that order is load-bearing).
func (a *Adapter) handleRequest(req *Message) {
	var body any
	var err error
	var after func()
	if a.cl == nil {
		// Hub mode before launch/attach: only the lifecycle requests
		// that don't need a runtime session are meaningful.
		switch req.Command {
		case "initialize", "launch", "attach", "disconnect", "terminate":
		default:
			a.conn.RespondError(req, "no runtime bound yet: send launch (with a runtime spec) or attach (with a runtime id) first")
			return
		}
	}
	switch req.Command {
	case "initialize":
		body, err = a.onInitialize(req)
	case "launch", "attach":
		// Standalone: the hgdb session was dialed in New (so initialize
		// could advertise capabilities truthfully); both requests just
		// bind the DAP lifecycle to it. An address in the arguments
		// must match — silently debugging a different server than the
		// one the editor named would be worse than failing.
		// Hub: the request carries which runtime to debug, so the
		// session is dialed here (bindHub) and the now-known
		// capabilities are re-announced before initialized.
		// Arguments that do not decode fail the request before anything
		// is dialed or registered: json.Unmarshal fills the fields it
		// can, so a partial decode would launch a runtime the editor
		// never asked for (a mistyped kind defaults to a live sim).
		var args AttachArguments
		if len(req.Arguments) > 0 {
			if err = json.Unmarshal(req.Arguments, &args); err != nil {
				err = fmt.Errorf("bad %s arguments: %v", req.Command, err)
				break
			}
		}
		if args.Address != "" && args.Address != a.opts.Addr {
			err = fmt.Errorf("adapter is attached to %s; restart hgdb-dap with -attach %s", a.opts.Addr, args.Address)
			break
		}
		if a.opts.Hub {
			if err = a.bindHub(req.Command, args); err != nil {
				break
			}
			after = func() {
				a.mu.Lock()
				reverse := a.reverse
				a.mu.Unlock()
				a.conn.SendEvent("capabilities", CapabilitiesEventBody{Capabilities: Capabilities{
					SupportsConfigurationDoneRequest: true,
					SupportsConditionalBreakpoints:   true,
					SupportsEvaluateForHovers:        true,
					SupportsStepBack:                 reverse,
					SupportsTerminateRequest:         true,
				}})
				a.conn.SendEvent("initialized", nil)
			}
			break
		}
		// initialized signals readiness for breakpoint configuration.
		after = func() { a.conn.SendEvent("initialized", nil) }
	case "setBreakpoints":
		body, err = a.onSetBreakpoints(req)
	case "setExceptionBreakpoints":
		body = SetBreakpointsResponse{Breakpoints: []Breakpoint{}}
	case "configurationDone":
		// Nothing to flush: breakpoints armed eagerly per request.
	case "threads":
		body = a.onThreads()
	case "stackTrace":
		body, err = a.onStackTrace(req)
	case "scopes":
		body, err = a.onScopes(req)
	case "variables":
		body, err = a.onVariables(req)
	case "evaluate":
		body, err = a.onEvaluate(req)
	case "continue":
		if err = a.resume("continue"); err == nil {
			body = ContinueResponse{AllThreadsContinued: true}
		}
	case "next", "stepIn", "stepOut":
		// Hardware has one frame: every step granularity is "next
		// enabled source statement".
		err = a.resume("step")
	case "stepBack":
		err = a.reverseResume("reverse-step")
	case "reverseContinue":
		err = a.reverseResume("reverse-continue")
	case "pause":
		err = a.onPause()
	case "disconnect", "terminate":
		a.conn.Respond(req, nil)
		// Closing the hgdb session is the whole teardown: the server
		// hands control over (or auto-continues a parked simulation)
		// and the pump converts the local disconnect sentinel into a
		// terminated event. Unbound hub adapters have no session and
		// just acknowledge.
		if a.cl != nil {
			a.cl.Close()
		}
		return
	default:
		err = fmt.Errorf("unsupported request %q", req.Command)
	}
	if err != nil {
		a.conn.RespondError(req, "%v", err)
		return
	}
	if werr := a.conn.Respond(req, body); werr != nil {
		a.logf("dap: respond %s: %v", req.Command, werr)
		return
	}
	if after != nil {
		after()
	}
}

func (a *Adapter) onInitialize(req *Message) (any, error) {
	var args InitializeArguments
	if len(req.Arguments) > 0 {
		if err := json.Unmarshal(req.Arguments, &args); err != nil {
			return nil, fmt.Errorf("bad initialize arguments: %v", err)
		}
	}
	a.mu.Lock()
	a.lineBase = 1
	if args.LinesStartAt1 != nil && !*args.LinesStartAt1 {
		a.lineBase = 0
	}
	reverse := a.reverse
	a.mu.Unlock()
	return Capabilities{
		SupportsConfigurationDoneRequest: true,
		SupportsConditionalBreakpoints:   true,
		SupportsEvaluateForHovers:        true,
		SupportsStepBack:                 reverse,
		SupportsTerminateRequest:         true,
	}, nil
}

// toInternal converts a client line number to the symbol table's
// 1-based numbering, toExternal the reverse.
func (a *Adapter) toInternal(line int) int { return line - a.lineBase + 1 }
func (a *Adapter) toExternal(line int) int { return line + a.lineBase - 1 }

// resolveFile maps a DAP source to a symbol-table filename: exact path
// match first, then basename match (editors send absolute paths, the
// symbol table stores what the generator recorded).
func (a *Adapter) resolveFile(src Source) string {
	for _, cand := range []string{src.Path, src.Name} {
		if cand == "" {
			continue
		}
		for _, f := range a.files {
			if f == cand {
				return f
			}
		}
		base := path.Base(cand)
		for _, f := range a.files {
			if path.Base(f) == base {
				return f
			}
		}
	}
	return ""
}

// onSetBreakpoints implements DAP's replace-per-source semantics over
// hgdb's add/remove API: the request carries the complete desired set
// for one source; the adapter diffs it against what it armed before,
// removes stale lines, arms new ones, and verifies every requested
// line against the symbol table's breakable-line set.
func (a *Adapter) onSetBreakpoints(req *Message) (any, error) {
	var args SetBreakpointsArguments
	if err := json.Unmarshal(req.Arguments, &args); err != nil {
		return nil, fmt.Errorf("bad setBreakpoints arguments: %v", err)
	}
	want := args.Breakpoints
	if len(want) == 0 && len(args.Lines) > 0 {
		for _, l := range args.Lines {
			want = append(want, SourceBreakpoint{Line: l})
		}
	}
	out := make([]Breakpoint, len(want))
	file := a.resolveFile(args.Source)
	if file == "" {
		for i, b := range want {
			out[i] = Breakpoint{Verified: false, Line: b.Line,
				Message: fmt.Sprintf("source %q is not in the symbol table", args.Source.Path+args.Source.Name)}
		}
		return SetBreakpointsResponse{Breakpoints: out}, nil
	}

	// The breakable lines come straight from symtab.Lines via the
	// server's info topic.
	raw, err := a.cl.Info("lines", file)
	if err != nil {
		return nil, fmt.Errorf("info lines %s: %v", file, err)
	}
	var lines []int
	if err := json.Unmarshal(raw, &lines); err != nil {
		return nil, fmt.Errorf("info lines %s: %v", file, err)
	}
	breakable := make(map[int]bool, len(lines))
	for _, l := range lines {
		breakable[l] = true
	}

	// Desired set, internal line numbering; on duplicate lines the
	// last condition wins (matching DAP's replace semantics).
	desired := map[int]string{}
	for _, b := range want {
		desired[a.toInternal(b.Line)] = b.Condition
	}

	// a.armed is confined to this request-loop goroutine (the pump only
	// reads the armedIDs projection, which rebuildArmedIDs swaps under
	// a.mu), so the diff below needs no locking.
	cur := a.armed[file]
	if cur == nil {
		cur = map[int]*armedLine{}
		a.armed[file] = cur
	}

	// Remove lines that are gone or whose condition changed.
	for line, al := range cur {
		if cond, ok := desired[line]; ok && cond == al.cond {
			continue
		}
		if _, err := a.cl.RemoveBreakpoint(file, line); err != nil {
			a.logf("dap: remove breakpoint %s:%d: %v", file, line, err)
		}
		delete(cur, line)
	}

	// Arm what is new, answering in request order. The armed condition
	// always comes from the desired map — on duplicate lines both
	// entries arm (and report) the same winning condition, keeping the
	// recorded state convergent with the removal diff above.
	for i, b := range want {
		line := a.toInternal(b.Line)
		cond := desired[line]
		if al, ok := cur[line]; ok && al.cond == cond {
			out[i] = Breakpoint{ID: al.ids[0], Verified: true, Line: b.Line}
			continue
		}
		if !breakable[line] {
			// Messages speak the client's line numbering, not the
			// symbol table's internal 1-based one.
			out[i] = Breakpoint{Verified: false, Line: b.Line,
				Message: fmt.Sprintf("no breakable statement at %s:%d", file, b.Line)}
			continue
		}
		ids, err := a.cl.AddBreakpoint(file, line, cond)
		if err != nil || len(ids) == 0 {
			out[i] = Breakpoint{Verified: false, Line: b.Line,
				Message: fmt.Sprintf("arm %s:%d: %v", file, b.Line, err)}
			continue
		}
		cur[line] = &armedLine{ids: ids, cond: cond}
		out[i] = Breakpoint{ID: ids[0], Verified: true, Line: b.Line}
	}

	a.rebuildArmedIDs()
	return SetBreakpointsResponse{Breakpoints: out}, nil
}

// rebuildArmedIDs refreshes the flat id set the event pump classifies
// stops with.
func (a *Adapter) rebuildArmedIDs() {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := map[int64]bool{}
	for _, lines := range a.armed {
		for _, al := range lines {
			for _, id := range al.ids {
				ids[id] = true
			}
		}
	}
	a.armedIDs = ids
}

func (a *Adapter) onThreads() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	threads := make([]Thread, len(a.instances))
	for i, inst := range a.instances {
		threads[i] = Thread{ID: i + 1, Name: inst}
	}
	return ThreadsResponse{Threads: threads}
}

// stoppedThreadLocked returns the stop-event thread for an instance,
// or nil when that instance did not hit this stop.
func (a *Adapter) stoppedThreadLocked(instance string) *core.Thread {
	if !a.stopped || a.lastStop == nil {
		return nil
	}
	for i := range a.lastStop.Threads {
		if a.lastStop.Threads[i].Instance == instance {
			return &a.lastStop.Threads[i]
		}
	}
	return nil
}

func (a *Adapter) onStackTrace(req *Message) (any, error) {
	var args ThreadedArguments
	if err := json.Unmarshal(req.Arguments, &args); err != nil {
		return nil, fmt.Errorf("bad stackTrace arguments: %v", err)
	}
	inst, ok := a.instanceByID(args.ThreadID)
	if !ok {
		return nil, fmt.Errorf("unknown thread %d", args.ThreadID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	th := a.stoppedThreadLocked(inst)
	if th == nil {
		// Running, or this instance did not hit: no frames.
		return StackTraceResponse{StackFrames: []StackFrame{}}, nil
	}
	stop := a.lastStop
	frame := StackFrame{
		// One generator statement = one frame; the thread id doubles
		// as the frame id.
		ID:     args.ThreadID,
		Name:   fmt.Sprintf("%s at %s:%d", inst, stop.File, stop.Line),
		Source: &Source{Name: path.Base(stop.File), Path: stop.File},
		Line:   a.toExternal(stop.Line),
		Column: stop.Col,
	}
	return StackTraceResponse{StackFrames: []StackFrame{frame}, TotalFrames: 1}, nil
}

func (a *Adapter) onScopes(req *Message) (any, error) {
	var args struct {
		FrameID int `json:"frameId"`
	}
	if err := json.Unmarshal(req.Arguments, &args); err != nil {
		return nil, fmt.Errorf("bad scopes arguments: %v", err)
	}
	inst, ok := a.instanceByID(args.FrameID)
	if !ok {
		return nil, fmt.Errorf("unknown frame %d", args.FrameID)
	}
	a.mu.Lock()
	th := a.stoppedThreadLocked(inst)
	a.mu.Unlock()
	if th == nil {
		return nil, fmt.Errorf("frame %d is not stopped", args.FrameID)
	}
	locals := core.Structure(th.Locals)
	gen := core.Structure(th.Generator)
	return ScopesResponse{Scopes: []Scope{
		{Name: "Locals", VariablesReference: a.handles.alloc(locals),
			NamedVariables: len(locals)},
		{Name: "Generator", VariablesReference: a.handles.alloc(gen),
			NamedVariables: len(gen)},
	}}, nil
}

func (a *Adapter) onVariables(req *Message) (any, error) {
	var args struct {
		VariablesReference int `json:"variablesReference"`
	}
	if err := json.Unmarshal(req.Arguments, &args); err != nil {
		return nil, fmt.Errorf("bad variables arguments: %v", err)
	}
	svs, ok := a.handles.get(args.VariablesReference)
	if !ok {
		return nil, fmt.Errorf("stale variablesReference %d (invalidated by resume)", args.VariablesReference)
	}
	vars := make([]Variable, 0, len(svs))
	for _, sv := range svs {
		v := Variable{Name: sv.Name}
		if sv.Leaf != nil {
			// Display renders known ≤64-bit values as decimal (the
			// two-state behavior), four-state or wide ones as Verilog
			// literals ("8'b1x0z"), and failed reads as "<unknown>".
			v.Value = sv.Leaf.Display()
			if !sv.Leaf.Unknown {
				v.Type = fmt.Sprintf("u%d", sv.Leaf.Width)
			}
		}
		if len(sv.Children) > 0 {
			// Children expand lazily: the handle is allocated here, the
			// values are only read when the client actually asks.
			v.VariablesReference = a.handles.alloc(sv.Children)
			if v.Value == "" {
				v.Value = fmt.Sprintf("{%d fields}", len(sv.Children))
			}
		}
		vars = append(vars, v)
	}
	return VariablesResponse{Variables: vars}, nil
}

func (a *Adapter) onEvaluate(req *Message) (any, error) {
	var args EvaluateArguments
	if err := json.Unmarshal(req.Arguments, &args); err != nil {
		return nil, fmt.Errorf("bad evaluate arguments: %v", err)
	}
	instance := ""
	if args.FrameID > 0 {
		if inst, ok := a.instanceByID(args.FrameID); ok {
			instance = inst
		}
	}
	if instance == "" {
		a.mu.Lock()
		if a.stopped && a.lastStop != nil && len(a.lastStop.Threads) > 0 {
			instance = a.lastStop.Threads[0].Instance
		} else {
			instance = a.top
		}
		a.mu.Unlock()
	}
	v, err := a.cl.Evaluate(instance, args.Expression)
	if err != nil {
		return nil, err
	}
	result := strconv.FormatUint(v.Value, 10)
	if v.Display != "" {
		result = v.Display
	}
	return EvaluateResponse{
		Result: result,
		Type:   fmt.Sprintf("u%d", v.Width),
	}, nil
}

// resume issues a resume command with the stop state cleared first, so
// a new stop racing in on the pump is never clobbered. The continued
// event goes out BEFORE the command: the resumed simulation can reach
// its next stop before the command's response does, and the editor
// must always observe continued → stopped, never the reverse (a
// trailing continued would leave the UI showing a running target while
// the simulation is parked). If the command fails, the previous stop
// is re-announced to undo the continued event.
func (a *Adapter) resume(cmd string) error {
	a.mu.Lock()
	if !a.stopped {
		a.mu.Unlock()
		return fmt.Errorf("not stopped")
	}
	prevStop, prevEvent := a.lastStop, a.lastEvent
	a.stopped = false
	a.resuming = cmd
	a.lastStop = nil
	// A user-issued resume cancels any pending pause label, mirroring
	// the scheduler: a command from a stop clears the armed interrupt.
	a.pauseReq = false
	a.mu.Unlock()
	a.handles.reset()
	a.conn.SendEvent("continued", ContinuedEvent{AllThreadsContinued: true})
	if err := a.cl.Command(cmd); err != nil {
		// Roll back: the simulation is still parked at the old stop
		// (e.g. control is held by another session). Restore the stop
		// data and re-announce it so stackTrace/scopes keep working
		// and the editor returns to the stopped state — unless the
		// pump recorded a NEWER stop while the command was in flight
		// (the real controller resumed and hit again); that stop is
		// the truth and must not be clobbered with stale data.
		a.mu.Lock()
		if a.stopped {
			a.mu.Unlock()
			return err
		}
		a.stopped = true
		a.resuming = ""
		a.lastStop = prevStop
		a.lastEvent = prevEvent
		a.mu.Unlock()
		if prevStop != nil {
			a.conn.SendEvent("stopped", prevEvent)
		}
		return err
	}
	return nil
}

// reverseResume gates stepBack/reverseContinue behind the backend's
// time-travel capability.
func (a *Adapter) reverseResume(cmd string) error {
	a.mu.Lock()
	reverse := a.reverse
	a.mu.Unlock()
	if !reverse {
		return fmt.Errorf("backend cannot step back (live simulation; use a replay trace)")
	}
	return a.resume(cmd)
}

func (a *Adapter) onPause() error {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return fmt.Errorf("already stopped")
	}
	a.pauseReq = true
	a.mu.Unlock()
	if err := a.cl.Command("pause"); err != nil {
		a.mu.Lock()
		a.pauseReq = false
		a.mu.Unlock()
		return err
	}
	return nil
}

// pump translates broadcast hgdb events into DAP events until the hgdb
// session ends.
func (a *Adapter) pump() {
	for ev := range a.sub.C {
		switch ev.Type {
		case "stop":
			if ev.Stop != nil {
				a.onStop(ev.Stop)
			}
		case "goodbye":
			// Peer goodbyes are broadcast too; terminal only when it is
			// this session being dismissed or a server shutdown.
			if ev.SessionID == a.cl.SessionID() || ev.Reason == "shutdown" {
				a.conn.SendEvent("terminated", struct{}{})
				return
			}
		case "disconnect":
			a.conn.SendEvent("terminated", struct{}{})
			return
		}
	}
}

// hitBreakpointsLocked returns the armed breakpoint ids among a stop's
// threads. Non-stepping stops only ever carry armed hits; stepping
// stops (which evaluate every potential statement) intersect with the
// armed set.
func (a *Adapter) hitBreakpointsLocked(stop *core.StopEvent) []int64 {
	var hit []int64
	for _, th := range stop.Threads {
		if a.armedIDs[th.BreakpointID] {
			hit = append(hit, th.BreakpointID)
		}
	}
	return hit
}

// onStop is the pump's stop translation: record the stop and classify
// its reason.
func (a *Adapter) onStop(stop *core.StopEvent) {
	a.mu.Lock()
	a.lastStop = stop
	a.stopped = true
	for _, th := range stop.Threads {
		a.ensureThreadLocked(th.Instance)
	}
	hit := a.hitBreakpointsLocked(stop)
	resumed := a.resuming
	a.resuming = ""
	a.handles.reset()

	reason := "step"
	switch {
	case len(stop.Watch) > 0:
		reason = "data breakpoint"
	case stop.StepStop && stop.Reverse && !a.pauseReq &&
		(resumed == "continue" || resumed == "step"):
		// A forward run can only end in a reverse step stop at the end
		// of a trace: the replay holds at its last enabled statement.
		reason = "end"
	case len(hit) > 0 || !stop.StepStop:
		// An armed id among the hit threads, or a landing on another
		// session's breakpoint.
		reason = "breakpoint"
	case a.pauseReq:
		// This step stop is the requested interrupt landing; only now
		// is the pause consumed — a breakpoint or watch stop arriving
		// first must not eat the label (the interrupt is still armed
		// until the user resumes, which clears it in resume()).
		reason = "pause"
		a.pauseReq = false
	case resumed == "reverse-continue":
		// reverseContinue found no earlier hit and stopped at the
		// trace's entry, in cycle 0.
		reason = "entry"
	}
	threadID := 0
	if len(stop.Threads) > 0 {
		threadID = a.threadID[stop.Threads[0].Instance]
	} else if len(stop.Watch) > 0 {
		if id, ok := a.threadID[stop.Watch[0].Instance]; ok {
			threadID = id
		}
	}
	if threadID == 0 && len(a.instances) > 0 {
		threadID = 1
	}
	desc := fmt.Sprintf("%s at %s:%d (time %d)", reason, stop.File, stop.Line, stop.Time)
	switch {
	case reason == "end":
		desc = fmt.Sprintf("end of trace at %s:%d (time %d)", stop.File, stop.Line, stop.Time)
	case stop.Reverse:
		desc += " [reverse]"
	}
	ev := StoppedEvent{
		Reason:            reason,
		Description:       desc,
		ThreadID:          threadID,
		AllThreadsStopped: true,
		HitBreakpointIDs:  hit,
		Time:              stop.Time,
	}
	a.lastEvent = ev
	a.mu.Unlock()

	a.conn.SendEvent("stopped", ev)
}
