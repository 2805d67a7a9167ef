// Package vcd implements writing and indexing of Value Change Dump
// traces. The paper's replay backend consumes VCD files — which carry
// design hierarchy but no definition information (§3.3) — so the parser
// reconstructs an instance tree from $scope nesting and indexes the
// value changes into a time-blocked Store that answers value-at-time
// queries for reverse debugging, either straight from the text
// (ParseStore) or from a persisted store file (IndexFile, OpenStore).
package vcd

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/eval"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// idCode converts a dense index into a VCD identifier code (printable
// ASCII 33..126, base 94).
func idCode(n int) string {
	var b []byte
	for {
		b = append(b, byte('!'+n%94))
		n /= 94
		if n == 0 {
			break
		}
	}
	return string(b)
}

// Recorder streams a simulation into VCD text as the simulator runs.
type Recorder struct {
	w       *bufio.Writer
	ids     map[string]string // full signal path -> id code
	widths  map[string]int
	curTime uint64
	started bool
	err     error
}

// NewRecorder attaches to a simulator and writes the VCD header for its
// entire hierarchy. Value changes stream out as the simulation steps.
func NewRecorder(s *sim.Simulator, out io.Writer) *Recorder {
	r := &Recorder{
		w:      bufio.NewWriter(out),
		ids:    map[string]string{},
		widths: map[string]int{},
	}
	nl := s.Netlist()
	fmt.Fprintf(r.w, "$date\n  repro hgdb trace\n$end\n$version\n  repro vcd 1.0\n$end\n$timescale 1ns $end\n")
	n := 0
	var writeScope func(node *rtl.InstanceNode)
	writeScope = func(node *rtl.InstanceNode) {
		fmt.Fprintf(r.w, "$scope module %s $end\n", node.Name)
		for _, local := range node.Signals {
			full := node.Path + "." + local
			sig, ok := nl.Signal(full)
			if !ok {
				continue
			}
			id := idCode(n)
			n++
			r.ids[full] = id
			r.widths[full] = sig.Width
			fmt.Fprintf(r.w, "$var wire %d %s %s $end\n", sig.Width, id, local)
		}
		for _, c := range node.Children {
			writeScope(c)
		}
		fmt.Fprintf(r.w, "$upscope $end\n")
	}
	writeScope(nl.Hierarchy)
	fmt.Fprintf(r.w, "$enddefinitions $end\n$dumpvars\n")
	s.OnChange(func(sig *rtl.Signal, v eval.Value) {
		r.change(s.Time(), sig, v)
	})
	return r
}

func (r *Recorder) change(t uint64, sig *rtl.Signal, v eval.Value) {
	if r.err != nil {
		return
	}
	id, ok := r.ids[sig.Name]
	if !ok {
		return
	}
	if r.started && t != r.curTime {
		fmt.Fprintf(r.w, "#%d\n", t)
		r.curTime = t
	}
	if !r.started {
		r.started = true
		r.curTime = t
		if t != 0 {
			fmt.Fprintf(r.w, "#%d\n", t)
		}
	}
	if sig.Width == 1 {
		_, r.err = fmt.Fprintf(r.w, "%d%s\n", v.Bits&1, id)
		return
	}
	_, r.err = fmt.Fprintf(r.w, "b%s %s\n", strconv.FormatUint(v.Bits, 2), id)
}

// Flush completes the trace.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ParseStats counts events on the parse path that change what the
// trace representation holds. ParseStore and IndexFile fill it.
type ParseStats struct {
	// XZChanges counts value changes carrying at least one x or z bit.
	// Four-state changes are stored exactly (the unknown-bit plane);
	// the count tells tools and users how much of the trace is
	// unknown-at-reset territory.
	XZChanges int
	// MaxWidth is the widest change literal seen, in bits. Arbitrary
	// widths are stored exactly — nothing is masked — so this is a
	// trace-shape statistic, not a loss report.
	MaxWidth int
}

// hierBuilder reconstructs the instance tree from $scope nesting.
type hierBuilder struct {
	scopes []string
	nodes  []*rtl.InstanceNode
	root   *rtl.InstanceNode
}

func (h *hierBuilder) enter(name string) {
	h.scopes = append(h.scopes, name)
	node := &rtl.InstanceNode{Name: name, Path: strings.Join(h.scopes, ".")}
	if len(h.nodes) == 0 {
		h.root = node
	} else {
		parent := h.nodes[len(h.nodes)-1]
		parent.Children = append(parent.Children, node)
	}
	h.nodes = append(h.nodes, node)
}

func (h *hierBuilder) exit() {
	if len(h.scopes) > 0 {
		h.scopes = h.scopes[:len(h.scopes)-1]
		h.nodes = h.nodes[:len(h.nodes)-1]
	}
}

func (h *hierBuilder) declare(local string) (full string) {
	full = local
	if len(h.scopes) > 0 {
		full = strings.Join(h.scopes, ".") + "." + local
	}
	if len(h.nodes) > 0 {
		node := h.nodes[len(h.nodes)-1]
		node.Signals = append(node.Signals, local)
	}
	return full
}

// maxLineBytes caps one VCD line. Vector changes carry one binary
// digit per bus bit, so very wide buses produce very long lines; 64
// MiB admits multi-megabit vectors while still bounding a hostile
// unterminated stream.
const maxLineBytes = 64 << 20

// scanVCD reads a VCD stream line by line into the ingest g: it
// rebuilds the scope tree, hands declarations and value changes to g,
// and sets the store's Hierarchy, MaxTime and Stats. Only the
// constructs produced by Recorder and common simulators are supported:
// $scope/$var/$upscope nesting, scalar and binary vector changes, and
// #time markers. #time markers must be non-decreasing — the ingest's
// time-delta encoding depends on it — and a regression, like every
// other malformed line, is rejected with a positioned error.
func scanVCD(rd io.Reader, g *storeIngest) error {
	st := g.st
	var h hierBuilder
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	inDefs := true
	var curTime uint64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "$scope"):
			f := strings.Fields(line)
			if len(f) < 3 {
				return fmt.Errorf("vcd: line %d: malformed scope line %q", lineNo, line)
			}
			h.enter(f[2])
		case strings.HasPrefix(line, "$upscope"):
			h.exit()
		case strings.HasPrefix(line, "$var"):
			// $var wire <width> <id> <name> [...] $end
			f := strings.Fields(line)
			if len(f) < 5 {
				return fmt.Errorf("vcd: line %d: malformed var line %q", lineNo, line)
			}
			width, err := strconv.Atoi(f[2])
			if err != nil || width < 0 {
				return fmt.Errorf("vcd: line %d: bad width in %q", lineNo, line)
			}
			if width > maxSignalWidth {
				// OpenStore refuses wider signals, and the value planes
				// of one change would be allocated at this width.
				return fmt.Errorf("vcd: line %d: width %d exceeds the %d-bit limit", lineNo, width, maxSignalWidth)
			}
			g.vardecl(f[3], width, h.declare(f[4]))
		case strings.HasPrefix(line, "$enddefinitions"):
			inDefs = false
		case strings.HasPrefix(line, "$"):
			// Skip other directives ($date/$version/$timescale/$dumpvars).
			continue
		case line[0] == '#':
			t, err := strconv.ParseUint(line[1:], 10, 64)
			if err != nil {
				return fmt.Errorf("vcd: line %d: bad timestamp %q", lineNo, line)
			}
			if t < curTime {
				// A regressed timestamp would make ParseStore's time-delta
				// encoding underflow and silently corrupt the block record
				// stream; reject it where the position is still known.
				return fmt.Errorf("vcd: line %d: timestamp #%d went backwards (previous #%d)",
					lineNo, t, curTime)
			}
			curTime = t
		case line[0] == 'b' || line[0] == 'B':
			if inDefs {
				continue
			}
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return fmt.Errorf("vcd: line %d: malformed vector change %q", lineNo, line)
			}
			raw := line[1:sp]
			if raw == "" {
				return fmt.Errorf("vcd: line %d: empty vector value %q", lineNo, line)
			}
			// Validate digits here (the one place with a line number) so
			// the ingest can parse the literal infallibly; count
			// four-state and width statistics in the same pass.
			hasXZ := false
			for i := 0; i < len(raw); i++ {
				switch raw[i] {
				case '0', '1':
				case 'x', 'X', 'z', 'Z':
					hasXZ = true
				default:
					return fmt.Errorf("vcd: line %d: bad vector value %q", lineNo, line)
				}
			}
			if hasXZ {
				st.Stats.XZChanges++
			}
			if len(raw) > st.Stats.MaxWidth {
				st.Stats.MaxWidth = len(raw)
			}
			g.change(strings.TrimSpace(line[sp+1:]), curTime, raw)
		case line[0] == '0' || line[0] == '1' || line[0] == 'x' || line[0] == 'z' ||
			line[0] == 'X' || line[0] == 'Z':
			if inDefs {
				continue
			}
			if line[0] != '0' && line[0] != '1' {
				st.Stats.XZChanges++
			}
			if st.Stats.MaxWidth < 1 {
				st.Stats.MaxWidth = 1
			}
			g.change(line[1:], curTime, line[:1])
		}
	}
	st.MaxTime = curTime
	st.Hierarchy = h.root
	return sc.Err()
}
