package core

import "sort"

// onEdge is the clock-edge callback: the entire Figure 2 scheduling
// loop. The first check is the fast path the paper's overhead argument
// rests on — with no breakpoints inserted and no step pending, the
// callback returns immediately and the simulator pays only the cost of
// the call itself.
func (rt *Runtime) onEdge(time uint64) {
	// Serve any queries debugger sessions queued since the last edge:
	// observers read values mid-run here, with combinational state
	// settled, instead of racing the simulator from their own
	// goroutines (see query.go). The edge counter bumps first so an
	// idle-fallback caller racing this edge knows a live drainer
	// exists and waits instead of running inline.
	rt.edgeSeen.Add(1)
	rt.drainQueries()

	rt.mu.Lock()
	idle := rt.idleLocked()
	stepping := rt.stepArmed
	reverse := rt.reverseArmed
	rt.interrupted = false // a pending pause is now this edge's step
	hasBPs := len(rt.inserted) > 0
	hasWatches := len(rt.watches) > 0
	handler := rt.handler
	rt.mu.Unlock()

	if idle {
		return // fast exit: no breakpoint left to schedule
	}
	if hasWatches {
		if ev := rt.checkWatches(time); ev != nil {
			switch rt.stop(handler, ev) {
			case CmdDetach:
				rt.Detach()
				return
			case CmdStep:
				stepping = true
			case CmdReverseStep:
				stepping, reverse = true, true
			case CmdReverseContinue:
				stepping, reverse = rt.reverseContinue(time)
			}
		}
	}
	if !hasBPs && !stepping && !reverse {
		return
	}

	start := 0
	if reverse {
		start = len(rt.allGroups) - 1
	}
	rt.schedule(time, start, stepping, reverse, handler)
}

// idleLocked reports onEdge's fast-exit condition: the runtime is
// detached, has no handler, or has no breakpoint, watch, step or pause
// armed, so no edge can stop. Drive parks on the same condition.
// Callers hold rt.mu.
func (rt *Runtime) idleLocked() bool {
	return rt.detached || rt.handler == nil ||
		(len(rt.inserted) == 0 && len(rt.watches) == 0 && !rt.stepArmed)
}

// stop hands one stop event to the handler and returns its command.
// The paused user may have deposited values or changed the breakpoint
// set, so the cycle cache is dropped; a pause requested while parked
// is superseded by the command. A handler that detached the runtime
// itself gets CmdDetach whatever it returned, so the walk ends there.
func (rt *Runtime) stop(handler Handler, ev *StopEvent) Command {
	rt.mu.Lock()
	rt.stopCount++
	rt.mu.Unlock()
	cmd := handler(ev)
	rt.mu.Lock()
	rt.interrupted = false
	if rt.detached {
		cmd = CmdDetach
	}
	rt.mu.Unlock()
	rt.invalidatePrefetch()
	return cmd
}

// reverseContinue starts a reverse-continue walk at time t and returns
// its stop rule. The walk is a non-stepping reverse schedule, except in
// cycle 0, which it walks as a reverse step. It passes over statements
// with no armed member, so their counts are brought up to date first.
func (rt *Runtime) reverseContinue(t uint64) (stepping, reverse bool) {
	rt.syncDeps()
	return t == 0, true
}

// schedule walks breakpoint groups in the pre-computed order (or its
// reverse), evaluates each group's members, and blocks in the handler
// on hits. Reverse scheduling that falls off the beginning of a cycle
// re-enters the previous cycle when the backend supports SetTime
// (trace replay), giving full reverse debugging.
//
// stepping stops at the next enabled statement; reverse walks
// backwards. A reverse, non-stepping walk is a reverse-continue: it
// evaluates only armed members, stops at the first hit, and keeps
// rewinding until one is found or cycle 0 begins. A forward,
// non-stepping walk visits only the armed groups (rt.armed), and none
// at all on an idle edge: its cost is what can hit, not the size of
// the design.
func (rt *Runtime) schedule(time uint64, start int, stepping, reverse bool, handler Handler) {
	t := time
	i := start
	// k is a forward, non-stepping walk's position in rt.armed. seek
	// marks it stale: at the walk's start, and after every stop, whose
	// handler may have changed the armed set or the walk's direction.
	k, seek := 0, true
	for {
		exhaustive := rt.exhaustive.Load()
		armedOnly := !stepping && !reverse && !exhaustive
		if armedOnly {
			if seek {
				// The refresh rebuilds a changed armed set, so the walk
				// positions itself after it: at the first armed group at
				// or past i.
				rt.ensurePrefetch(t)
				k = sort.SearchInts(rt.armed, i)
				seek = false
				if rt.fused.idle() {
					// Every armed condition is a parked miss: the rest
					// of the walk would skip each group it visits.
					rt.statSkipped.Add(uint64(len(rt.armed) - k))
					k = len(rt.armed)
				}
			}
			i = len(rt.allGroups)
			if k < len(rt.armed) {
				i = rt.armed[k]
			}
		}
		if i < 0 || i >= len(rt.allGroups) {
			// Fetch-next-breakpoints returned "done" for this cycle.
			if reverse && i < 0 && t > 0 {
				// Reverse past the cycle boundary: rewind time if the
				// backend can. The per-edge value cache was fetched
				// before the rewind and must not survive it: times
				// alias after SetTime, and serving pre-rewind values at
				// the rewound time would evaluate conditions against
				// the wrong cycle.
				if err := rt.backend.SetTime(t - 1); err == nil {
					rt.invalidatePrefetch()
					// A rewound cycle is an edge to the query surface,
					// as in onEdge: observers stay served during a long
					// walk, and RunQuery's idle fallback never runs
					// inline against it.
					rt.edgeSeen.Add(1)
					rt.drainQueries()
					t--
					i = len(rt.allGroups) - 1
					if !stepping {
						// A reverse-continue walk turns into a reverse
						// step in cycle 0, or when a pause arrived.
						rt.syncDeps()
						rt.mu.Lock()
						stepping = t == 0 || rt.interrupted
						rt.mu.Unlock()
					}
					continue
				}
				// The backend cannot rewind: a reverse-continue walk
				// degrades to a reverse step, which stays armed below.
				stepping = true
			}
			break
		}
		g := rt.allGroups[i]
		var hits []*insertedBP
		switch {
		case armedOnly:
			// Forward, non-stepping edge at an armed group: the whole
			// schedule's conditions run as one fused program over this
			// edge's cache (fused.go); the walk consumes per-condition
			// results.
			hits = rt.fusedGroupEval(rt.fusedReady(t), i)
		case stepping || exhaustive:
			// Stepping (forward and reverse) and the exhaustive reference
			// evaluate every member with the general evaluator.
			hits = rt.evaluateGroup(g, stepping)
		default:
			// A reverse-continue walk: the fused program runs forward
			// edges only, so armed members go through the general
			// evaluator. A group with no armed member can never hit.
			if rt.groupArmed[i] > 0 {
				hits = rt.evaluateGroup(g, false)
			}
		}
		if len(hits) == 0 {
			i = next(i, reverse)
			k++
			continue
		}
		switch rt.stop(handler, rt.buildEvent(g, hits, t, reverse, stepping)) {
		case CmdDetach:
			rt.Detach()
			rt.setStep(false, false)
			return
		case CmdStep:
			stepping, reverse = true, false
		case CmdReverseStep:
			stepping, reverse = true, true
		case CmdReverseContinue:
			stepping, reverse = rt.reverseContinue(t)
		default:
			stepping, reverse = false, false
		}
		i = next(i, reverse)
		seek = true
		rt.mu.Lock()
		hasBPs := len(rt.inserted) > 0
		rt.mu.Unlock()
		if !stepping && !reverse && !hasBPs {
			break
		}
	}
	// Carry stepping state into the next cycle: a forward step that ran
	// off the end of this cycle stops at the first enabled statement of
	// the next; an un-rewindable reverse step stays armed so the user
	// still gets a stop (documented live-simulation limitation). A
	// pause that arrived during the walk arms a step.
	rt.setStep(stepping, reverse && stepping)
}

func next(i int, reverse bool) int {
	if reverse {
		return i - 1
	}
	return i + 1
}

func (rt *Runtime) setStep(step, reverse bool) {
	rt.mu.Lock()
	rt.stepArmed = step || rt.interrupted
	rt.reverseArmed = reverse
	rt.mu.Unlock()
}

// evaluateGroup evaluates all candidate breakpoints of one source
// statement with the general evaluator (§3.2 step 2) and returns the
// members that hit. It serves stepping, reverse-continue walks and the
// exhaustive reference, none of them a forward hot path, so members run
// one by one.
func (rt *Runtime) evaluateGroup(g *group, stepping bool) []*insertedBP {
	// Select members: inserted breakpoints always; when stepping, every
	// potential breakpoint participates.
	rt.mu.Lock()
	members := rt.memberBuf[:0]
	for _, cand := range g.bps {
		if armed, ok := rt.inserted[cand.bp.ID]; ok {
			members = append(members, armed)
		} else if stepping {
			members = append(members, cand)
		}
	}
	rt.memberBuf = members
	rt.mu.Unlock()
	rt.evalCount.Add(uint64(len(members)))
	if len(members) == 0 {
		return nil
	}
	rt.statEvaluated.Add(1)
	var hits []*insertedBP
	for _, m := range members {
		if rt.evalBP(m) {
			hits = append(hits, m)
		}
	}
	return hits
}

// evalBP checks one breakpoint with the general four-state evaluator:
// the SSA enable condition, then the user condition, each reading its
// signals straight from the backend through the paths resolved at arm
// time. The breakpoint hits only when both are definitely true.
func (rt *Runtime) evalBP(ibp *insertedBP) bool {
	return ibp.enable.truth(rt) && ibp.cond.truth(rt)
}
