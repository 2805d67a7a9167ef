package server

// This file is the broadcast fan-out path: every event is encoded at
// most once per wire encoding (JSON text, optional binary) no matter
// how many sessions receive it, and stop events are additionally
// delta-encoded against each session's last-acknowledged snapshot —
// sessions that acked the same base share the same delta frame. All
// encoding happens under s.mu, so a frame's byte slices are immutable
// once handed to session queues.

import (
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// stopHistoryDepth bounds how many past stop broadcasts the server
// retains as delta bases. A session whose last ack fell out of the
// window resyncs with a full frame.
var stopHistoryDepth = 64

// frame is one broadcast event with lazily memoized encodings. Both
// accessors run under s.mu only; the returned slices are shared by
// every recipient and must never be mutated.
type frame struct {
	ev   *proto.Event
	json []byte
	bin  []byte
}

func newFrame(ev *proto.Event) *frame { return &frame{ev: ev} }

func (f *frame) jsonBytes() []byte {
	if f.json == nil {
		b, err := json.Marshal(f.ev)
		if err != nil {
			return nil
		}
		f.json = b
	}
	return f.json
}

func (f *frame) binBytes() []byte {
	if f.bin == nil {
		f.bin = proto.EncodeBinaryEvent(f.ev)
	}
	return f.bin
}

// bytesFor returns the frame in the session's negotiated encoding.
func (f *frame) bytesFor(sess *Session) []byte {
	if sess.binary {
		return f.binBytes()
	}
	return f.jsonBytes()
}

// classOf maps an event type to its coalescing class.
func classOf(typ string) eventClass {
	switch typ {
	case "stop", "resume":
		return classState
	case "attach", "goodbye":
		return classPeer
	case "control":
		return classControl
	}
	return classResponse // welcome and anything load-bearing
}

// enqueueFrameLocked hands one shared frame to one session in its
// negotiated encoding. Callers hold s.mu.
func (s *Server) enqueueFrameLocked(sess *Session, f *frame) bool {
	msg := f.bytesFor(sess)
	if msg == nil {
		return false
	}
	return sess.enqueue(outEntry{
		cls:    classOf(f.ev.Type),
		msg:    msg,
		binary: sess.binary,
	})
}

// recordStopLocked appends a stop to the delta-base history, evicting
// past the window. Callers hold s.mu.
func (s *Server) recordStopLocked(seq uint64, ev *core.StopEvent) {
	s.stopHist = append(s.stopHist, stopRecord{seq: seq, stop: ev})
	if len(s.stopHist) > stopHistoryDepth {
		// Slide in place; the slice stays one allocation.
		n := copy(s.stopHist, s.stopHist[len(s.stopHist)-stopHistoryDepth:])
		s.stopHist = s.stopHist[:n]
	}
}

// stopBaseLocked finds a retained stop by broadcast seq.
func (s *Server) stopBaseLocked(seq uint64) *core.StopEvent {
	if seq == 0 {
		return nil
	}
	for i := len(s.stopHist) - 1; i >= 0; i-- {
		if s.stopHist[i].seq == seq {
			return s.stopHist[i].stop
		}
		if s.stopHist[i].seq < seq {
			break
		}
	}
	return nil
}

// stopRecord is one retained stop broadcast (a delta base candidate).
type stopRecord struct {
	seq  uint64
	stop *core.StopEvent
}

// broadcastStopLocked broadcasts one stop event: a single sequence
// number and emit stamp, one shared full frame, and one shared delta
// frame per distinct acked base among delta sessions. Returns the
// stamped seq. Callers hold s.mu.
func (s *Server) broadcastStopLocked(ev *core.StopEvent) uint64 {
	s.seq++
	seq := s.seq
	emit := time.Now().UnixNano()
	full := newFrame(&proto.Event{Type: "stop", Seq: seq, Emit: emit, Stop: ev})
	// deltas memoizes one frame per acked base seq: with N observers
	// stopped on the same cadence they typically share one base, so the
	// diff and both encodings happen once, not N times.
	var deltas map[uint64]*frame
	for _, id := range s.order {
		sess := s.sessions[id]
		f := full
		if sess.delta {
			if ack := sess.lastAck.Load(); ack > 0 && ack < seq {
				if base := s.stopBaseLocked(ack); base != nil {
					df, ok := deltas[ack]
					if !ok {
						df = newFrame(&proto.Event{
							Type: "stop", Seq: seq, Emit: emit,
							Delta: proto.DiffStop(ack, base, ev),
						})
						if deltas == nil {
							deltas = map[uint64]*frame{}
						}
						deltas[ack] = df
					}
					f = df
				}
			}
		}
		if s.enqueueFrameLocked(sess, f) {
			if f == full {
				sess.fullFrames.Add(1)
			} else {
				sess.deltaFrames.Add(1)
			}
		}
	}
	s.recordStopLocked(seq, ev)
	return seq
}

// replayStopLocked sends the parked stop to one session (attach while
// stopped, promotion) as a full frame with a fresh seq, through the
// same accounting as a broadcast. Callers hold s.mu.
func (s *Server) replayStopLocked(sess *Session, ev *core.StopEvent) bool {
	s.seq++
	f := newFrame(&proto.Event{
		Type: "stop", Seq: s.seq, Emit: time.Now().UnixNano(), Stop: ev,
	})
	if !s.enqueueFrameLocked(sess, f) {
		return false
	}
	sess.fullFrames.Add(1)
	s.recordStopLocked(s.seq, ev)
	return true
}
