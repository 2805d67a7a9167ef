package core

import "context"

// Drive runs the simulation on the calling goroutine until ctx is
// cancelled. step advances the backend one clock edge and returns
// false at the end of a trace.
//
// While an edge can stop, Drive calls step back to back, unpaced.
// While none can — the clock callback's fast-exit condition: detached,
// no handler, or no breakpoint, watch, step or pause armed — it parks,
// serving the query queue, until arming, InterruptNext or SetHandler
// wakes it. Parking skips only edges that could not have stopped.
//
// At the end of a trace Drive walks the last cycle as a reverse step
// from its last statement, so the end is a step stop at the last
// enabled statement: the mirror of reverse-continue's entry stop in
// cycle 0. A continue or step from there stops there again. With no
// statement enabled at or before the end, Drive parks at the end.
func (rt *Runtime) Drive(ctx context.Context, step func() bool) {
	for ctx.Err() == nil {
		switch {
		case !rt.canStop():
		case step():
			continue
		case rt.endStop():
			continue
		}
		rt.park(ctx)
	}
}

// canStop reports whether the next edge could stop.
func (rt *Runtime) canStop() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return !rt.idleLocked()
}

// wakeLocked leaves a wake-up for a parked Drive loop; one pending
// token is enough. Callers hold rt.mu.
func (rt *Runtime) wakeLocked() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// park blocks until a wake-up or ctx's cancellation, running queued
// queries meanwhile. Like an edge, it first bumps the edge counter and
// drains the queue, so a query already waiting out its idle grace
// waits for this drainer instead of running inline beside a loop that
// may wake at any moment.
func (rt *Runtime) park(ctx context.Context) {
	rt.edgeSeen.Add(1)
	rt.drainQueries()
	for {
		select {
		case <-rt.wake:
			return
		case <-ctx.Done():
			return
		case job := <-rt.queries:
			job.Run()
		}
	}
}

// endStop walks the last cycle of a trace as a reverse step from its
// last statement and reports whether the walk stopped. A walk that
// finds no enabled statement ends in cycle 0 with a reverse step
// armed; endStop disarms it, and any pause it carried, and seeks back
// to the end, so Drive parks there instead of stepping on from cycle 0.
func (rt *Runtime) endStop() bool {
	rt.mu.Lock()
	handler, stops := rt.handler, rt.stopCount
	rt.mu.Unlock()
	if handler == nil {
		return false
	}
	end := rt.backend.Time()
	rt.schedule(end, len(rt.allGroups)-1, true, true, handler)
	rt.mu.Lock()
	stopped := rt.stopCount != stops
	if !stopped {
		rt.stepArmed, rt.reverseArmed, rt.interrupted = false, false, false
	}
	rt.mu.Unlock()
	if !stopped && rt.backend.Time() != end {
		rt.backend.SetTime(end)
		rt.invalidatePrefetch()
	}
	return stopped
}
