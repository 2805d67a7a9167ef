package eval

// This file is the shape of a fused condition program: every armed
// breakpoint and watch condition of a debug session lowered into ONE
// word program (exec.go) over one value plane, run once per clock edge
// instead of once per condition. The fuser (internal/expr) hash-conses
// instructions across conditions, so what two or more conditions reach
// forms a prelude computed once per run; every other instruction
// belongs to one condition's private range, which the scheduler skips
// while that condition is a parked miss.
//
// A run cannot fail: the fuser types every instruction at fuse time,
// and no word instruction can fail once its types check. The one
// failure left is a read of the plane's inputs, which the caller
// handles by slot (a failed slot poisons the conditions that read it).

// Segment is one condition's private range of a MultiProg:
// Code[Start:End) runs after the prelude, and leaves the condition's
// value in plane slot Result, of type Type (a zero Value).
type Segment struct {
	Start, End int
	Result     int32
	Type       Value
}

// MultiProg is a fused multi-condition word program. Code[:Prelude] is
// the prelude; the conditions' private ranges follow in condition
// order, so they are contiguous (Conds[i].End == Conds[i+1].Start) and
// the last ends the code.
type MultiProg struct {
	Code    []Instr
	Prelude int
	// Init is the value plane's initial contents, constants filled in;
	// its length is the plane's size.
	Init  []uint64
	Conds []Segment
}

// Exec runs the program once over plane: the prelude, then every
// condition whose bit in the packed bitmap skip is clear (nil skips
// none), each stretch of consecutive unskipped ranges in one call. A
// skipped condition's private instructions do not run, so they leave
// their slots as they were. Exec allocates nothing.
func (p *MultiProg) Exec(plane []uint64, skip []uint64) {
	if skip == nil {
		Exec(p.Code, plane, nil)
		return
	}
	Exec(p.Code[:p.Prelude], plane, nil)
	start := -1
	for ci := range p.Conds {
		switch c := &p.Conds[ci]; {
		case skip[ci>>6]&(1<<(uint(ci)&63)) != 0:
			if start >= 0 {
				Exec(p.Code[start:c.Start], plane, nil)
				start = -1
			}
		case start < 0:
			start = c.Start
		}
	}
	if start >= 0 {
		Exec(p.Code[start:], plane, nil)
	}
}
