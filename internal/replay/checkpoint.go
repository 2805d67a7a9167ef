package replay

import (
	"fmt"
	"sort"

	"repro/internal/val"
	"repro/internal/vcd"
)

// This file is the checkpointed state machine behind Engine. The
// block store holds undecoded change records; reconstructing "the value
// of signal X at time t" therefore has two paths:
//
//   - Materialized signals (the debugger's breakpoint/watch dependency
//     union, advised via Prefetch) answer by binary search over their
//     decoded timelines — per-cycle condition evaluation never moves
//     any shared state and stays allocation-free.
//   - Everything else (frame reconstruction at a stop, raw get_value
//     requests) reads from a full signal-state array that is synced to
//     the query time by replaying change records. A sync first
//     restores the latest value-snapshot checkpoint at or before t
//     whenever one lies past the current state or the state is past t,
//     then replays forward from there. A reverse step therefore costs
//     O(checkpoint interval) records instead of O(t) — the difference
//     between usable and unusable reverse debugging on long traces —
//     and so does a forward jump over time an earlier sweep already
//     crossed.
//
// Checkpoints are created lazily: whenever a forward sync crosses a
// checkpoint boundary for the first time, the state array and stream
// cursor are snapshotted. Boundaries inside record-free stretches are
// skipped — state cannot change there, so the snapshot before the gap
// serves any seek into it — and backward syncs find the nearest
// existing snapshot by binary search over the sorted checkpoint times.

// DefaultMaxCheckpoints bounds the adaptive checkpoint interval: when
// no explicit interval is configured, the interval is chosen so at most
// this many snapshots exist for the whole trace. Snapshot memory is
// then bounded by 16 B × state words × DefaultMaxCheckpoints (value and
// unknown-bit planes, one word per 64 bits of each signal) while
// reverse seeks still skip all but maxTime/256 of the trace.
const DefaultMaxCheckpoints = 256

// StoreEngineOption configures NewStore.
type StoreEngineOption func(*Engine)

// WithCheckpointInterval sets the distance in trace time units between
// value-snapshot checkpoints. Smaller intervals make backward seeks
// cheaper and snapshots more numerous; 0 restores the adaptive default
// (trace length / DefaultMaxCheckpoints, at least one block).
func WithCheckpointInterval(interval uint64) StoreEngineOption {
	return func(e *Engine) { e.interval = interval }
}

// snapshot is one restore point: the full packed signal-state planes
// and the change-stream cursor at a checkpoint boundary.
type snapshot struct {
	state *vcd.State
	cur   vcd.Cursor
}

// resetToZero puts the replay state at time 0 — which is NOT the zero
// state: a trace's #0 records ($dumpvars initial values in real
// simulator output) must be applied, or every read at t=0 would return
// 0 instead of the recorded initial values.
func (e *Engine) resetToZero() {
	e.state.Zero()
	e.cur = e.st.ApplyUpTo(vcd.Cursor{}, 0, e.state)
	e.stateTime = 0
}

// bits returns the signal's recorded four-state value at time t —
// traces are the one backend whose native value plane really is
// four-state; GetValue lowers it onto the two-state vpi surface where
// possible.
func (e *Engine) bits(path string, t uint64) (val.Bits, error) {
	ts, ok := e.st.Signal(path)
	if !ok {
		return val.Bits{}, fmt.Errorf("replay: unknown signal %q", path)
	}
	return e.bitsOf(ts, t)
}

// bitsOf is bits for a signal already looked up.
func (e *Engine) bitsOf(ts *vcd.StoreSignal, t uint64) (val.Bits, error) {
	if ts.Materialized() {
		// Lazy fast path: the decoded timeline answers any time without
		// touching the shared state array — lock-free.
		return ts.BitsAt(t), nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sync(t)
	if err := e.st.Err(); err != nil {
		// A corrupt or unreadable block stopped the walk mid-stream; the
		// state array is only synced up to the damage, so surface the
		// store failure rather than a silently stale value.
		return val.Bits{}, err
	}
	return e.st.StateBits(e.state, ts), nil
}

// sync moves the replay state to time t.
func (e *Engine) sync(t uint64) {
	if t == e.stateTime {
		return
	}
	e.restore(t)
	// Forward apply, snapshotting checkpoint boundaries as the sweep
	// crosses them. Record-free stretches (timestamps count timescale
	// units, so real dumps have huge gaps) are jumped in one step with
	// no per-boundary work: state cannot change there, and the snapshot
	// before a gap already serves any backward seek into it. Sweep cost
	// is therefore O(records applied + snapshots taken), never
	// O(t / interval).
	for e.stateTime < t {
		nt, ok := e.st.NextChangeTime(e.cur)
		if !ok || nt > t {
			// No records in (stateTime, t]: values at t are identical.
			e.stateTime = t
			return
		}
		next := (e.stateTime/e.interval + 1) * e.interval
		if nt > next {
			// Jump the gap: land on the last boundary at or before the
			// next record so the upcoming interval gets its snapshot.
			next = (nt / e.interval) * e.interval
		}
		if next > t {
			break
		}
		e.cur = e.st.ApplyUpTo(e.cur, next, e.state)
		e.stateTime = next
		if _, ok := e.cps[next]; !ok {
			sn := &snapshot{state: e.state.Clone(), cur: e.cur}
			e.cps[next] = sn
			// Insert in sorted position: snapshots are usually created in
			// ascending order, but a partial sweep that stops short of a
			// boundary, a later gap-jump past it, and a rewind-and-resweep
			// can create an earlier boundary after later ones — restore's
			// binary search needs cpTimes sorted regardless.
			i := sort.Search(len(e.cpTimes), func(i int) bool { return e.cpTimes[i] > next })
			e.cpTimes = append(e.cpTimes, 0)
			copy(e.cpTimes[i+1:], e.cpTimes[i:])
			e.cpTimes[i] = next
		}
	}
	if t > e.stateTime {
		e.cur = e.st.ApplyUpTo(e.cur, t, e.state)
		e.stateTime = t
	}
}

// restore moves the state to the latest checkpoint at or before t when
// the state is past t (a backward seek) or that checkpoint lies past
// the state (a forward jump over already-swept time); otherwise it
// leaves the state where it is. A backward seek with no checkpoint at
// or before t restarts from the time-0 state.
func (e *Engine) restore(t uint64) {
	i := sort.Search(len(e.cpTimes), func(i int) bool { return e.cpTimes[i] > t }) - 1
	switch {
	case i >= 0 && (t < e.stateTime || e.cpTimes[i] > e.stateTime):
		ck := e.cpTimes[i]
		sn := e.cps[ck]
		e.state.CopyFrom(sn.state)
		e.cur = sn.cur
		e.stateTime = ck
	case t < e.stateTime:
		e.resetToZero()
	}
}
