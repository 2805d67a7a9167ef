package proto

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// Binary wire encoding. Sessions that negotiate `enc=binary` at attach
// receive broadcast events as length-prefixed binary frames instead of
// JSON text: every integer is a uvarint, every string is a uvarint
// length prefix followed by its bytes, and booleans pack into flag
// bytes. Requests and responses stay JSON text — they are low-rate and
// per-session; the binary path exists for the one payload that is
// written N times per simulation stop.
//
// Frame layout:
//
//	byte 0: magic 0xB5
//	byte 1: version (3; the decoder also accepts 1 and 2)
//	byte 2: kind — kindStop | kindDelta | kindGeneric
//	...     kind-specific body (see encode/decode pairs below)
//
// Version 2 grew the four-state value plane: variables and value
// patches carry a flags byte with optional x-plane and high-word
// payloads, and watch hits carry optional rendered display strings.
// Version 3 grew the hub routing fields on generic frames: the
// runtime id a session is attached to (welcome/goodbye behind a hub)
// and the registry size (hub-welcome). Stop and delta frames are
// unchanged from version 2. The encoder always emits version 3; the
// decoder accepts versions 1 and 2 too (their layouts are strict
// subsets), so a newer client can still read a stream recorded by an
// older server.
//
// The codec is attacker-facing (a malicious server could feed a client
// arbitrary frames), so DecodeBinaryFrame bounds every count before
// allocating and is fuzzed (FuzzDecodeBinaryFrame) with seeds captured
// from real harness traffic.

const (
	binMagic   = 0xB5
	binVersion = 3

	kindStop    = 1 // full stop event
	kindDelta   = 2 // delta stop event
	kindGeneric = 3 // welcome/attach/goodbye/control/resume
)

// Variable/patch flag bits (version ≥ 2).
const (
	varUnknown = 1 << 0 // backend read failed
	varHasX    = 1 << 1 // x-plane low word follows
	varWide    = 1 << 2 // high value words follow
	varWideX   = 1 << 3 // high x-plane words follow
)

// Decode caps: no legitimate frame comes close, and a hostile header
// must not force a huge allocation.
const (
	maxBinThreads = 1 << 16
	maxBinVars    = 1 << 20
	maxBinWatch   = 1 << 16
	maxBinString  = 1 << 20
	// maxBinWords caps one value's high-word planes at the widest
	// signal a trace store accepts: 2^20 bits is 16384 words.
	maxBinWords = 1 << 14
)

// --- encode primitives ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// --- decode primitives (cursor-based) ---

type binReader struct {
	buf []byte
	off int
	ver byte
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("proto: truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *binReader) int() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<31 {
		return 0, fmt.Errorf("proto: integer %d overflows", v)
	}
	return int(v), nil
}

func (r *binReader) count(max int, what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("proto: %s count %d exceeds %d", what, v, max)
	}
	// A count can never exceed the bytes remaining: every counted item
	// is at least one byte, so this rejects absurd counts before any
	// allocation sized by them.
	if v > uint64(len(r.buf)-r.off) {
		return 0, fmt.Errorf("proto: %s count %d exceeds remaining frame", what, v)
	}
	return int(v), nil
}

func (r *binReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxBinString || n > uint64(len(r.buf)-r.off) {
		return "", fmt.Errorf("proto: string length %d exceeds remaining frame", n)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("proto: truncated frame at offset %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *binReader) bool() (bool, error) {
	b, err := r.byte()
	return b != 0, err
}

// --- variables, threads, watch hits ---

// valueFlags computes the v2 flags byte for one value plane.
func valueFlags(unknown bool, x uint64, hi, xhi []uint64) byte {
	var flags byte
	if unknown {
		flags |= varUnknown
	}
	if x != 0 {
		flags |= varHasX
	}
	if len(hi) > 0 {
		flags |= varWide
	}
	if len(xhi) > 0 {
		flags |= varWideX
	}
	return flags
}

func appendWords(dst []byte, words []uint64) []byte {
	dst = appendUvarint(dst, uint64(len(words)))
	for _, w := range words {
		dst = appendUvarint(dst, w)
	}
	return dst
}

func (r *binReader) words() ([]uint64, error) {
	n, err := r.count(maxBinWords, "plane word")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendValuePlanes writes the optional four-state payload a flags
// byte announced.
func appendValuePlanes(dst []byte, flags byte, x uint64, hi, xhi []uint64) []byte {
	if flags&varHasX != 0 {
		dst = appendUvarint(dst, x)
	}
	if flags&varWide != 0 {
		dst = appendWords(dst, hi)
	}
	if flags&varWideX != 0 {
		dst = appendWords(dst, xhi)
	}
	return dst
}

func (r *binReader) valuePlanes(flags byte) (x uint64, hi, xhi []uint64, err error) {
	if flags&varHasX != 0 {
		if x, err = r.uvarint(); err != nil {
			return 0, nil, nil, err
		}
	}
	if flags&varWide != 0 {
		if hi, err = r.words(); err != nil {
			return 0, nil, nil, err
		}
	}
	if flags&varWideX != 0 {
		if xhi, err = r.words(); err != nil {
			return 0, nil, nil, err
		}
	}
	return x, hi, xhi, nil
}

func appendVar(dst []byte, v *core.Variable) []byte {
	dst = appendString(dst, v.Name)
	dst = appendString(dst, v.RTL)
	dst = appendUvarint(dst, v.Value)
	dst = appendUvarint(dst, uint64(v.Width))
	flags := valueFlags(v.Unknown, v.X, v.Hi, v.XHi)
	dst = append(dst, flags)
	return appendValuePlanes(dst, flags, v.X, v.Hi, v.XHi)
}

func (r *binReader) variable() (core.Variable, error) {
	var v core.Variable
	var err error
	if v.Name, err = r.string(); err != nil {
		return v, err
	}
	if v.RTL, err = r.string(); err != nil {
		return v, err
	}
	if v.Value, err = r.uvarint(); err != nil {
		return v, err
	}
	if v.Width, err = r.int(); err != nil {
		return v, err
	}
	if r.ver < 2 {
		v.Unknown, err = r.bool()
		return v, err
	}
	flags, err := r.byte()
	if err != nil {
		return v, err
	}
	v.Unknown = flags&varUnknown != 0
	v.X, v.Hi, v.XHi, err = r.valuePlanes(flags)
	return v, err
}

func appendVarList(dst []byte, vars []core.Variable) []byte {
	dst = appendUvarint(dst, uint64(len(vars)))
	for i := range vars {
		dst = appendVar(dst, &vars[i])
	}
	return dst
}

func (r *binReader) varList() ([]core.Variable, error) {
	n, err := r.count(maxBinVars, "variable")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]core.Variable, n)
	for i := range out {
		if out[i], err = r.variable(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func appendThread(dst []byte, th *core.Thread) []byte {
	dst = appendUvarint(dst, uint64(th.BreakpointID))
	dst = appendString(dst, th.Instance)
	dst = appendVarList(dst, th.Locals)
	return appendVarList(dst, th.Generator)
}

func (r *binReader) thread() (core.Thread, error) {
	var th core.Thread
	id, err := r.uvarint()
	if err != nil {
		return th, err
	}
	th.BreakpointID = int64(id)
	if th.Instance, err = r.string(); err != nil {
		return th, err
	}
	if th.Locals, err = r.varList(); err != nil {
		return th, err
	}
	th.Generator, err = r.varList()
	return th, err
}

func appendWatch(dst []byte, hits []core.WatchHit) []byte {
	dst = appendUvarint(dst, uint64(len(hits)))
	for i := range hits {
		h := &hits[i]
		dst = appendUvarint(dst, uint64(h.ID))
		dst = appendString(dst, h.Instance)
		dst = appendString(dst, h.Expr)
		dst = appendUvarint(dst, h.Old)
		dst = appendUvarint(dst, h.New)
		dst = appendString(dst, h.OldDisplay)
		dst = appendString(dst, h.NewDisplay)
	}
	return dst
}

func (r *binReader) watch() ([]core.WatchHit, error) {
	n, err := r.count(maxBinWatch, "watch hit")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]core.WatchHit, n)
	for i := range out {
		h := &out[i]
		if h.ID, err = r.int(); err != nil {
			return nil, err
		}
		if h.Instance, err = r.string(); err != nil {
			return nil, err
		}
		if h.Expr, err = r.string(); err != nil {
			return nil, err
		}
		if h.Old, err = r.uvarint(); err != nil {
			return nil, err
		}
		if h.New, err = r.uvarint(); err != nil {
			return nil, err
		}
		if r.ver < 2 {
			continue
		}
		if h.OldDisplay, err = r.string(); err != nil {
			return nil, err
		}
		if h.NewDisplay, err = r.string(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- stop events ---

func appendStopHeader(dst []byte, seq uint64, emit int64, time uint64, file string, line, col int, reverse, step bool) []byte {
	dst = appendUvarint(dst, seq)
	dst = appendUvarint(dst, uint64(emit))
	dst = appendUvarint(dst, time)
	dst = appendString(dst, file)
	dst = appendUvarint(dst, uint64(line))
	dst = appendUvarint(dst, uint64(col))
	var flags byte
	if reverse {
		flags |= 1
	}
	if step {
		flags |= 2
	}
	return append(dst, flags)
}

func appendStop(dst []byte, ev *Event) []byte {
	st := ev.Stop
	dst = appendStopHeader(dst, ev.Seq, ev.Emit, st.Time, st.File, st.Line, st.Col, st.Reverse, st.StepStop)
	dst = appendWatch(dst, st.Watch)
	dst = appendUvarint(dst, uint64(len(st.Threads)))
	for i := range st.Threads {
		dst = appendThread(dst, &st.Threads[i])
	}
	return dst
}

func (r *binReader) stop() (*Event, error) {
	ev := &Event{Type: "stop", Stop: &core.StopEvent{}}
	st := ev.Stop
	var err error
	if ev.Seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	emit, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ev.Emit = int64(emit)
	if st.Time, err = r.uvarint(); err != nil {
		return nil, err
	}
	if st.File, err = r.string(); err != nil {
		return nil, err
	}
	if st.Line, err = r.int(); err != nil {
		return nil, err
	}
	if st.Col, err = r.int(); err != nil {
		return nil, err
	}
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	st.Reverse = flags&1 != 0
	st.StepStop = flags&2 != 0
	if st.Watch, err = r.watch(); err != nil {
		return nil, err
	}
	n, err := r.count(maxBinThreads, "thread")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		th, err := r.thread()
		if err != nil {
			return nil, err
		}
		st.Threads = append(st.Threads, th)
	}
	return ev, nil
}

// --- delta stop events ---

func appendDelta(dst []byte, ev *Event) []byte {
	d := ev.Delta
	dst = appendStopHeader(dst, ev.Seq, ev.Emit, d.Time, d.File, d.Line, d.Col, d.Reverse, d.StepStop)
	dst = appendUvarint(dst, d.BaseSeq)
	dst = appendWatch(dst, d.Watch)
	dst = appendUvarint(dst, uint64(len(d.Threads)))
	for i := range d.Threads {
		td := &d.Threads[i]
		dst = appendUvarint(dst, uint64(td.Base))
		if td.Base == 0 {
			dst = appendThread(dst, td.Full)
			continue
		}
		dst = appendPatches(dst, td.Locals)
		dst = appendPatches(dst, td.Generator)
	}
	return dst
}

func appendPatches(dst []byte, patches []VarPatch) []byte {
	dst = appendUvarint(dst, uint64(len(patches)))
	for _, p := range patches {
		dst = appendUvarint(dst, uint64(p.Index))
		dst = appendUvarint(dst, p.Value)
		flags := valueFlags(p.Unknown, p.X, p.Hi, p.XHi)
		dst = append(dst, flags)
		dst = appendValuePlanes(dst, flags, p.X, p.Hi, p.XHi)
	}
	return dst
}

func (r *binReader) patches() ([]VarPatch, error) {
	n, err := r.count(maxBinVars, "patch")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]VarPatch, n)
	for i := range out {
		p := &out[i]
		if p.Index, err = r.int(); err != nil {
			return nil, err
		}
		if p.Value, err = r.uvarint(); err != nil {
			return nil, err
		}
		if r.ver < 2 {
			if p.Unknown, err = r.bool(); err != nil {
				return nil, err
			}
			continue
		}
		flags, err := r.byte()
		if err != nil {
			return nil, err
		}
		p.Unknown = flags&varUnknown != 0
		if p.X, p.Hi, p.XHi, err = r.valuePlanes(flags); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *binReader) delta() (*Event, error) {
	ev := &Event{Type: "stop", Delta: &StopDelta{}}
	d := ev.Delta
	var err error
	if ev.Seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	emit, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ev.Emit = int64(emit)
	if d.Time, err = r.uvarint(); err != nil {
		return nil, err
	}
	if d.File, err = r.string(); err != nil {
		return nil, err
	}
	if d.Line, err = r.int(); err != nil {
		return nil, err
	}
	if d.Col, err = r.int(); err != nil {
		return nil, err
	}
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	d.Reverse = flags&1 != 0
	d.StepStop = flags&2 != 0
	if d.BaseSeq, err = r.uvarint(); err != nil {
		return nil, err
	}
	if d.Watch, err = r.watch(); err != nil {
		return nil, err
	}
	n, err := r.count(maxBinThreads, "thread delta")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var td ThreadDelta
		if td.Base, err = r.int(); err != nil {
			return nil, err
		}
		if td.Base == 0 {
			th, err := r.thread()
			if err != nil {
				return nil, err
			}
			td.Full = &th
		} else {
			if td.Locals, err = r.patches(); err != nil {
				return nil, err
			}
			if td.Generator, err = r.patches(); err != nil {
				return nil, err
			}
		}
		d.Threads = append(d.Threads, td)
	}
	return ev, nil
}

// --- generic events (welcome/attach/goodbye/control/resume) ---

func appendGeneric(dst []byte, ev *Event) []byte {
	dst = appendString(dst, ev.Type)
	dst = appendUvarint(dst, ev.Seq)
	dst = appendUvarint(dst, uint64(ev.Emit))
	dst = appendUvarint(dst, uint64(ev.SessionID))
	dst = appendUvarint(dst, uint64(ev.Controller))
	dst = appendUvarint(dst, uint64(ev.Peers))
	dst = appendUvarint(dst, uint64(ev.Files))
	dst = appendString(dst, ev.Role)
	dst = appendString(dst, ev.Reason)
	dst = appendString(dst, ev.Top)
	dst = appendString(dst, ev.Mode)
	dst = appendString(dst, ev.Command)
	dst = appendBool(dst, ev.Reverse)
	// Version 3: hub routing fields.
	dst = appendString(dst, ev.Runtime)
	return appendUvarint(dst, uint64(ev.Runtimes))
}

func (r *binReader) generic() (*Event, error) {
	ev := &Event{}
	var err error
	if ev.Type, err = r.string(); err != nil {
		return nil, err
	}
	if ev.Type == "" || ev.Type == "stop" {
		return nil, fmt.Errorf("proto: generic frame with type %q", ev.Type)
	}
	if ev.Seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	emit, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ev.Emit = int64(emit)
	sid, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ev.SessionID = int64(sid)
	ctl, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ev.Controller = int64(ctl)
	if ev.Peers, err = r.int(); err != nil {
		return nil, err
	}
	if ev.Files, err = r.int(); err != nil {
		return nil, err
	}
	if ev.Role, err = r.string(); err != nil {
		return nil, err
	}
	if ev.Reason, err = r.string(); err != nil {
		return nil, err
	}
	if ev.Top, err = r.string(); err != nil {
		return nil, err
	}
	if ev.Mode, err = r.string(); err != nil {
		return nil, err
	}
	if ev.Command, err = r.string(); err != nil {
		return nil, err
	}
	if ev.Reverse, err = r.bool(); err != nil {
		return nil, err
	}
	if r.ver < 3 {
		return ev, nil
	}
	if ev.Runtime, err = r.string(); err != nil {
		return nil, err
	}
	ev.Runtimes, err = r.int()
	return ev, err
}

// EncodeBinaryEvent encodes one event as a binary frame. The event
// kind is chosen from the payload: Stop → kindStop, Delta → kindDelta,
// anything else → kindGeneric.
func EncodeBinaryEvent(ev *Event) []byte {
	// Typical stop frames are a few hundred bytes; start with room.
	dst := make([]byte, 0, 256)
	dst = append(dst, binMagic, binVersion)
	switch {
	case ev.Stop != nil:
		dst = append(dst, kindStop)
		return appendStop(dst, ev)
	case ev.Delta != nil:
		dst = append(dst, kindDelta)
		return appendDelta(dst, ev)
	default:
		dst = append(dst, kindGeneric)
		return appendGeneric(dst, ev)
	}
}

// DecodeBinaryFrame parses one binary frame back into an event. Every
// count and length is validated against the remaining frame before any
// allocation it sizes; trailing garbage is rejected.
func DecodeBinaryFrame(frame []byte) (*Event, error) {
	if len(frame) < 3 {
		return nil, fmt.Errorf("proto: binary frame of %d bytes is too short", len(frame))
	}
	if frame[0] != binMagic {
		return nil, fmt.Errorf("proto: bad binary frame magic %#x", frame[0])
	}
	if frame[1] < 1 || frame[1] > binVersion {
		return nil, fmt.Errorf("proto: unsupported binary frame version %d", frame[1])
	}
	r := &binReader{buf: frame, off: 3, ver: frame[1]}
	var ev *Event
	var err error
	switch frame[2] {
	case kindStop:
		ev, err = r.stop()
	case kindDelta:
		ev, err = r.delta()
	case kindGeneric:
		ev, err = r.generic()
	default:
		return nil, fmt.Errorf("proto: unknown binary frame kind %d", frame[2])
	}
	if err != nil {
		return nil, err
	}
	if r.off != len(frame) {
		return nil, fmt.Errorf("proto: %d trailing bytes after binary frame", len(frame)-r.off)
	}
	return ev, nil
}
