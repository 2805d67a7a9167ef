package core

// StopBuilder hands the external benchmarks buildEvent for one
// statement instance: the returned function builds the stop a hit of
// breakpoint id carries at the backend's current time (nil if id is no
// statement of the design).
func (rt *Runtime) StopBuilder(id int64) func() *StopEvent {
	for _, g := range rt.allGroups {
		for _, cand := range g.bps {
			if cand.bp.ID == id {
				hits := []*insertedBP{cand}
				return func() *StopEvent { return rt.buildEvent(g, hits, rt.backend.Time(), false, false) }
			}
		}
	}
	return nil
}
