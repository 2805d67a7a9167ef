package server

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/proto"
)

// Coalescing-semantics tests: the queue policy must collapse any
// interleaving of stop/resume/goodbye traffic and writer takes to a
// state equivalent to delivering every event — the delivered stream is
// a subsequence of the enqueued stream, responses all survive in
// order, and the final sim-state event delivered is the final one
// enqueued. The harness drains through Session.take, the writer's own
// step: each take hands over the whole queue as one batch.

// tagMsg encodes (class, id) into a frame payload the tests can parse
// back out of delivered entries.
func tagMsg(cls eventClass, id int) []byte {
	return []byte(fmt.Sprintf("%d:%d", cls, id))
}

func tagID(t *testing.T, msg []byte) int {
	t.Helper()
	for i, b := range msg {
		if b == ':' {
			id, err := strconv.Atoi(string(msg[i+1:]))
			if err != nil {
				t.Fatalf("bad tag %q: %v", msg, err)
			}
			return id
		}
	}
	t.Fatalf("untagged frame %q", msg)
	return 0
}

// coalesceHarness drives one Session queue directly and mirrors a
// full-delivery model alongside it.
type coalesceHarness struct {
	sess *Session

	nextID   int
	enqByCls map[eventClass][]int // ids enqueued per class, in order
	accepted map[int]bool         // enqueue returned true
	deliver  []int                // ids taken, in delivery order
	delivCls map[int]eventClass
}

func newCoalesceHarness() *coalesceHarness {
	return &coalesceHarness{
		sess:     newSession(&Server{}, nil, 1, proto.RoleObserver),
		enqByCls: map[eventClass][]int{},
		accepted: map[int]bool{},
		delivCls: map[int]eventClass{},
	}
}

func (h *coalesceHarness) enqueue(cls eventClass) int {
	h.nextID++
	id := h.nextID
	h.enqByCls[cls] = append(h.enqByCls[cls], id)
	h.accepted[id] = h.sess.enqueue(outEntry{cls: cls, msg: tagMsg(cls, id)})
	h.delivCls[id] = cls
	return id
}

// take runs one writer drain step: the whole queue, in order, as the
// batch the writer would put on the wire. It reports whether anything
// was queued.
func (h *coalesceHarness) take(t *testing.T) bool {
	batch := h.sess.take()
	for _, e := range batch {
		h.deliver = append(h.deliver, tagID(t, e.msg))
	}
	return len(batch) > 0
}

func (h *coalesceHarness) drainAll(t *testing.T) {
	for h.take(t) {
	}
}

// check asserts the equivalence properties after a full drain.
func (h *coalesceHarness) check(t *testing.T, label string) {
	t.Helper()
	// Delivered ids strictly increase: the surviving stream is a
	// subsequence of the enqueued stream, never a reordering.
	for i := 1; i < len(h.deliver); i++ {
		if h.deliver[i] <= h.deliver[i-1] {
			t.Fatalf("%s: delivery reordered: %v", label, h.deliver)
		}
	}
	// Every response survives, in order.
	var gotResp []int
	for _, id := range h.deliver {
		if h.delivCls[id] == classResponse {
			gotResp = append(gotResp, id)
		}
	}
	if want := h.enqByCls[classResponse]; fmt.Sprint(gotResp) != fmt.Sprint(want) {
		t.Fatalf("%s: responses delivered %v, enqueued %v", label, gotResp, want)
	}
	// The final sim-state event delivered is the final one enqueued:
	// a fully-drained observer holds the same state as one that saw
	// every event.
	if states := h.enqByCls[classState]; len(states) > 0 {
		wantLast := states[len(states)-1]
		gotLast := -1
		for _, id := range h.deliver {
			if h.delivCls[id] == classState {
				gotLast = id
			}
		}
		if gotLast != wantLast {
			t.Fatalf("%s: final state delivered = %d, want %d (delivered %v)",
				label, gotLast, wantLast, h.deliver)
		}
	}
	// Same terminal rule for peer and control classes: their newest
	// enqueued event, when accepted, must be delivered.
	for _, cls := range []eventClass{classPeer, classControl} {
		ids := h.enqByCls[cls]
		if len(ids) == 0 {
			continue
		}
		last := ids[len(ids)-1]
		if !h.accepted[last] {
			continue // shed under pressure with nothing to supersede
		}
		found := false
		for _, id := range h.deliver {
			if id == last {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: newest accepted class-%d event %d not delivered (%v)",
				label, cls, last, h.deliver)
		}
	}
	// Conservation: every enqueue is delivered, coalesced away, or
	// counted dropped.
	total := 0
	for _, ids := range h.enqByCls {
		total += len(ids)
	}
	got := len(h.deliver) + int(h.sess.coalesced.Load()) + int(h.sess.dropped.Load())
	if total != got {
		t.Fatalf("%s: %d enqueued but delivered+coalesced+dropped = %d+%d+%d",
			label, total, len(h.deliver), h.sess.coalesced.Load(), h.sess.dropped.Load())
	}
}

// TestCoalesceInterleavingsExhaustive enumerates every schedule of
// length 6 over {stop, resume, goodbye, take} — 4096 interleavings —
// and pins that each collapses to the full-delivery state. No queue
// pressure here (depth 64 vs ≤6 events), so every goodbye must also
// survive verbatim.
func TestCoalesceInterleavingsExhaustive(t *testing.T) {
	const length = 6
	ops := []byte{'S', 'C', 'G', 'T'} // stop, resume (continue), goodbye, writer take
	total := 1
	for i := 0; i < length; i++ {
		total *= len(ops)
	}
	for n := 0; n < total; n++ {
		sched := make([]byte, length)
		for i, v := 0, n; i < length; i, v = i+1, v/len(ops) {
			sched[i] = ops[v%len(ops)]
		}
		h := newCoalesceHarness()
		for _, op := range sched {
			switch op {
			case 'S', 'C':
				h.enqueue(classState)
			case 'G':
				h.enqueue(classPeer)
			case 'T':
				h.take(t)
			}
		}
		h.drainAll(t)
		label := string(sched)
		h.check(t, label)
		// With no pressure, peer events never coalesce or drop: every
		// goodbye is delivered.
		var gotPeers []int
		for _, id := range h.deliver {
			if h.delivCls[id] == classPeer {
				gotPeers = append(gotPeers, id)
			}
		}
		if fmt.Sprint(gotPeers) != fmt.Sprint(h.enqByCls[classPeer]) {
			t.Fatalf("%s: goodbyes delivered %v, enqueued %v (no pressure, none may coalesce)",
				label, gotPeers, h.enqByCls[classPeer])
		}
	}
}

// TestCoalesceRandomSchedules is the property-style half: 150
// randomized schedules mixing all four classes with interleaved writer
// takes, run against a tiny queue so the pressure paths (in-class
// coalesce, shed-with-nothing-to-supersede) are exercised.
func TestCoalesceRandomSchedules(t *testing.T) {
	oldDepth := outQueueDepth
	outQueueDepth = 8
	defer func() { outQueueDepth = oldDepth }()

	classes := []eventClass{
		classState, classState, classState, // state-heavy, like a stop storm
		classPeer, classControl, classResponse,
	}
	for schedule := 0; schedule < 150; schedule++ {
		rng := rand.New(rand.NewSource(int64(schedule)*7919 + 17))
		h := newCoalesceHarness()
		steps := 50 + rng.Intn(200)
		for i := 0; i < steps; i++ {
			// A take empties the whole queue, so takes come rarely
			// enough (one step in eight) that the queue still fills.
			if rng.Intn(8) == 0 {
				h.take(t)
				continue
			}
			h.enqueue(classes[rng.Intn(len(classes))])
		}
		h.drainAll(t)
		h.check(t, fmt.Sprintf("schedule %d", schedule))
		// State enqueues must never be shed: at most one is queued at a
		// time, so acceptance is unconditional.
		for _, id := range h.enqByCls[classState] {
			if !h.accepted[id] {
				t.Fatalf("schedule %d: state event %d rejected — stops must never shed", schedule, id)
			}
		}
	}
}
