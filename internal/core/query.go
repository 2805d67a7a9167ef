package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the runtime's safe query surface for debugger sessions.
// The simulator has no internal locking: touching the backend from a
// connection goroutine while the simulation goroutine is mid-cycle is
// a data race. Instead, queries are enqueued as jobs and executed
// where state is guaranteed stable:
//
//   - while the simulation runs, the clock-edge callback drains the
//     queue at every edge, with combinational state settled — this is
//     what lets an observer session read values mid-run;
//   - while the simulation is parked at a stop, the server's stop loop
//     drains the same queue on the (blocked) simulation goroutine;
//   - while a Drive loop is parked because no edge can stop, it drains
//     the queue on the simulation goroutine as well;
//   - while the simulation is idle and nothing drives it (never
//     started, or finished), no drainer exists: RunQuery falls back to
//     running the job inline on the caller after an idle grace period,
//     which is safe exactly because nothing else is touching the state.
//
// The grace period only has to outlast one simulation cycle (or stop
// handler dispatch), not bound it: if a drainer claims the job first,
// the inline fallback waits for it instead of double-running.

// ErrDetached is returned for queries issued after the runtime
// detached from the simulation: with the clock callback removed there
// is no drain point, and the free-running design cannot be read safely.
var ErrDetached = errors.New("core: runtime detached, query surface closed")

// queryQueueDepth bounds how many queries may be in flight; beyond it
// RunQuery fails fast rather than queueing unboundedly.
const queryQueueDepth = 256

const (
	jobPending int32 = iota
	jobClaimed
)

// QueryJob is one pending query. The goroutine that claims it runs the
// closure; everyone else waits on Done.
type QueryJob struct {
	rt    *Runtime
	fn    func()
	state atomic.Int32
	done  chan struct{}
}

// Run claims and executes the job; if another goroutine already
// claimed it, Run is a no-op. Execution is serialized across ALL
// drainers (clock edge, stop loop, inline fallback) by the runtime's
// query-execution lock, so two jobs can never touch backend state
// concurrently even when drained from different goroutines.
func (j *QueryJob) Run() {
	if !j.state.CompareAndSwap(jobPending, jobClaimed) {
		return
	}
	defer close(j.done)
	j.rt.execMu.Lock()
	defer j.rt.execMu.Unlock()
	j.fn()
}

// Done is closed once the job has executed.
func (j *QueryJob) Done() <-chan struct{} { return j.done }

// Queries exposes the pending-query channel so a stop handler that
// parks the simulation goroutine (the debug server's session loop) can
// keep serving reads while blocked:
//
//	select {
//	case cmd := <-resume:
//	    return cmd
//	case job := <-rt.Queries():
//	    job.Run()
//	}
func (rt *Runtime) Queries() <-chan *QueryJob { return rt.queries }

// RunQuery executes fn with simulation state guaranteed stable and
// returns once it has run. idleGrace is how long to wait for a drain
// point (clock edge or parked stop loop) before concluding the
// simulation is idle and running fn inline; it must comfortably exceed
// the duration of one simulation cycle.
func (rt *Runtime) RunQuery(idleGrace time.Duration, fn func()) error {
	rt.mu.Lock()
	detached := rt.detached
	rt.mu.Unlock()
	if detached {
		return ErrDetached
	}
	job := &QueryJob{rt: rt, fn: fn, done: make(chan struct{})}
	select {
	case rt.queries <- job:
	default:
		return fmt.Errorf("core: query queue full (%d pending)", queryQueueDepth)
	}
	// Sampled strictly after the enqueue: any bump observed later
	// belongs to an edge whose drain also runs after our enqueue, so
	// that drain is guaranteed to pop our job.
	edgesAtEnqueue := rt.edgeSeen.Load()
	// Memoized idleness: once a query has fallen back inline with the
	// edge counter at this value, later queries skip the grace wait
	// until an edge proves the simulation alive again — so only the
	// first query after quiescence pays the full grace latency.
	if rt.idleSince.Load() == edgesAtEnqueue+1 {
		idleGrace = 0
	}
	select {
	case <-job.done:
		return nil
	case <-time.After(idleGrace):
	}
	// No drainer served us within the grace period. Distinguish "the
	// simulation is idle" from "the simulation came alive just as the
	// grace expired": a clock edge since we enqueued means a live
	// drainer exists (edges bump edgeSeen before draining, and every
	// drain empties the queue), so our job is served — wait for it
	// instead of touching state under a running simulator.
	//
	// Residual window, accepted and documented: a simulation that has
	// produced no edge since the enqueue — because it is about to
	// start, or because the testbench paces cycles slower than the
	// grace period — is indistinguishable from an idle one, and the
	// next Step may begin while the fallback read below is in flight.
	// The exposure is the duration of the inline read itself
	// (microseconds) coinciding with a Step entry, per query; pacing
	// the grace above the testbench's inter-cycle gap removes it.
	// Closing it fully would require the backend to expose its own
	// locking, which in turn deadlocks fallback reads against
	// handlers that park the simulation without draining queries.
	if rt.edgeSeen.Load() != edgesAtEnqueue {
		<-job.done
		return nil
	}
	// Re-check detach before touching state inline — a detached design
	// may still be advancing.
	rt.mu.Lock()
	detached = rt.detached
	rt.mu.Unlock()
	if detached {
		select {
		case <-job.done: // a drainer won the race after all
			return nil
		default:
			return ErrDetached
		}
	}
	// Act as the drainer ourselves: pop and run queued jobs (ours is
	// among them unless a real drainer claimed it first). Popping
	// everything — not just our own job — keeps already-claimed jobs
	// from rotting in the channel until it jams; with an idle
	// simulation this loop is the only thing that empties it. Job
	// execution itself is serialized by execMu (see QueryJob.Run).
drain:
	for {
		select {
		case <-job.done:
			break drain // a real drainer took over; stop inlining
		default:
		}
		select {
		case j := <-rt.queries:
			j.Run()
		default:
			break drain
		}
	}
	// Ours either ran above or was claimed by a concurrent drainer.
	<-job.done
	rt.idleSince.Store(edgesAtEnqueue + 1)
	return nil
}

// drainQueries runs every pending query; called on the simulation
// goroutine at each clock edge with settled state.
func (rt *Runtime) drainQueries() {
	for {
		select {
		case job := <-rt.queries:
			job.Run()
		default:
			return
		}
	}
}
