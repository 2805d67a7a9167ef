// Package symtab implements the hgdb symbol table: the Figure 3
// relational schema (Instance, Breakpoint, Scope Variable, Generator
// Variable, Variable) stored in the embedded relational store, the four
// query primitives of §3.4, persistence, and the instance-name matching
// that locates the generated IP inside a larger testbench hierarchy.
package symtab

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/ir"
	"repro/internal/passes"
)

// Breakpoint is one emulated breakpoint row joined with its instance.
type Breakpoint struct {
	ID int64
	// Filename/Line/Col locate the generator source statement.
	Filename string
	Line     int
	Col      int
	// Order is the lexical scheduling order within the instance.
	Order int
	// Enable is the infix enable-condition over instance-local RTL
	// names; empty means always enabled.
	Enable string
	// EnableSrc is the human-readable source-level condition.
	EnableSrc string
	// Instance is the owning instance id.
	Instance int64
	// InstanceName is the hierarchical instance path relative to the
	// generator top (e.g. "Top.u0").
	InstanceName string
}

// VarBinding maps one source-level variable to an RTL signal.
type VarBinding struct {
	// Name is the source-level (dotted) variable name.
	Name string
	// RTL is the instance-local RTL signal name.
	RTL string
}

// Table is a loaded symbol table.
type Table struct {
	db *db.DB
	// top is the generator's top module name; instance paths are rooted
	// here.
	top string
}

// Schema names.
const (
	tblInstance     = "instance"
	tblBreakpoint   = "breakpoint"
	tblVariable     = "variable"
	tblScopeVar     = "scope_variable"
	tblGeneratorVar = "generator_variable"
	tblMeta         = "metadata"
)

func createSchema(d *db.DB) error {
	specs := []db.Schema{
		{Name: tblInstance, Columns: []db.Column{
			{Name: "id", Type: db.Integer, PrimaryKey: true},
			{Name: "name", Type: db.Text},
		}},
		{Name: tblBreakpoint, Columns: []db.Column{
			{Name: "id", Type: db.Integer, PrimaryKey: true},
			{Name: "filename", Type: db.Text},
			{Name: "line_num", Type: db.Integer},
			{Name: "column_num", Type: db.Integer},
			{Name: "ordinal", Type: db.Integer},
			{Name: "enable", Type: db.Text},
			{Name: "enable_src", Type: db.Text},
			{Name: "instance", Type: db.Integer, References: tblInstance},
		}},
		{Name: tblVariable, Columns: []db.Column{
			{Name: "id", Type: db.Integer, PrimaryKey: true},
			{Name: "value", Type: db.Text},
		}},
		{Name: tblScopeVar, Columns: []db.Column{
			{Name: "id", Type: db.Integer, PrimaryKey: true},
			{Name: "breakpoint", Type: db.Integer, References: tblBreakpoint},
			{Name: "name", Type: db.Text},
			{Name: "variable", Type: db.Integer, References: tblVariable},
		}},
		{Name: tblGeneratorVar, Columns: []db.Column{
			{Name: "id", Type: db.Integer, PrimaryKey: true},
			{Name: "instance", Type: db.Integer, References: tblInstance},
			{Name: "name", Type: db.Text},
			{Name: "kind", Type: db.Text},
			{Name: "variable", Type: db.Integer, References: tblVariable},
		}},
		{Name: tblMeta, Columns: []db.Column{
			{Name: "id", Type: db.Integer, PrimaryKey: true},
			{Name: "key", Type: db.Text},
			{Name: "value", Type: db.Text},
		}},
	}
	for _, s := range specs {
		if _, err := d.CreateTable(s); err != nil {
			return err
		}
	}
	return nil
}

func buildIndexes(d *db.DB) {
	if t, ok := d.Table(tblBreakpoint); ok {
		t.CreateIndex("filename")
		t.CreateIndex("instance")
	}
	if t, ok := d.Table(tblScopeVar); ok {
		t.CreateIndex("breakpoint")
	}
	if t, ok := d.Table(tblGeneratorVar); ok {
		t.CreateIndex("instance")
	}
	if t, ok := d.Table(tblInstance); ok {
		t.CreateIndex("name")
	}
}

// Build converts a compilation into a symbol table: each module-level
// SymbolEntry expands into one breakpoint per *instance* of the module,
// which is how a single source line later presents multiple concurrent
// "threads" (paper Fig. 4 B).
func Build(comp *passes.Compilation) (*Table, error) {
	d := db.New()
	if err := createSchema(d); err != nil {
		return nil, err
	}
	circ := comp.Circuit
	top := circ.Main

	// Enumerate instance paths per module by walking the instance graph.
	paths := map[string][]string{} // module -> instance paths
	var walk func(module, path string)
	walk = func(module, path string) {
		paths[module] = append(paths[module], path)
		for _, edge := range circ.InstanceGraph()[module] {
			walk(edge.Module, path+"."+edge.Instance)
		}
	}
	walk(top, top)

	instanceID := map[string]int64{}
	for _, module := range circ.SortedModuleNames() {
		for _, p := range paths[module] {
			id, err := d.Insert(tblInstance, db.Row{"name": p})
			if err != nil {
				return nil, err
			}
			instanceID[p] = id
		}
	}

	// Variables are deduplicated per (instance, RTL name).
	varID := map[string]int64{}
	getVar := func(rtl string) (int64, error) {
		if id, ok := varID[rtl]; ok {
			return id, nil
		}
		id, err := d.Insert(tblVariable, db.Row{"value": rtl})
		if err != nil {
			return 0, err
		}
		varID[rtl] = id
		return id, nil
	}

	for _, entry := range comp.Symbols {
		enable := ""
		if entry.Enable != nil {
			enable = ir.RenderInfix(entry.Enable)
		}
		// Map keys are ranged in sorted order here and below, so one
		// compilation always saves the same bytes.
		srcs := slices.Sorted(maps.Keys(entry.Vars))
		for _, instPath := range paths[entry.Module] {
			bpID, err := d.Insert(tblBreakpoint, db.Row{
				"filename":   entry.File,
				"line_num":   entry.Line,
				"column_num": entry.Col,
				"ordinal":    entry.Order,
				"enable":     enable,
				"enable_src": entry.EnableSrc,
				"instance":   instanceID[instPath],
			})
			if err != nil {
				return nil, err
			}
			for _, src := range srcs {
				vid, err := getVar(entry.Vars[src])
				if err != nil {
					return nil, err
				}
				if _, err := d.Insert(tblScopeVar, db.Row{
					"breakpoint": bpID,
					"name":       src,
					"variable":   vid,
				}); err != nil {
					return nil, err
				}
			}
		}
	}

	for _, module := range slices.Sorted(maps.Keys(comp.GenVars)) {
		for _, instPath := range paths[module] {
			for _, gv := range comp.GenVars[module] {
				vid, err := getVar(gv.RTL)
				if err != nil {
					return nil, err
				}
				if _, err := d.Insert(tblGeneratorVar, db.Row{
					"instance": instanceID[instPath],
					"name":     gv.Name,
					"kind":     gv.Kind,
					"variable": vid,
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	if _, err := d.Insert(tblMeta, db.Row{"key": "top", "value": top}); err != nil {
		return nil, err
	}
	mode := "optimized"
	if comp.Debug {
		mode = "debug"
	}
	if _, err := d.Insert(tblMeta, db.Row{"key": "mode", "value": mode}); err != nil {
		return nil, err
	}
	buildIndexes(d)
	return &Table{db: d, top: top}, nil
}

// Top returns the generator top module name.
func (t *Table) Top() string { return t.top }

// Mode returns "optimized" or "debug".
func (t *Table) Mode() string {
	meta, _ := t.db.Table(tblMeta)
	for _, row := range meta.All() {
		if row["key"] == "mode" {
			return row["value"].(string)
		}
	}
	return "optimized"
}

// Save writes the table as JSON.
func (t *Table) Save(w io.Writer) error { return t.db.Save(w) }

// Load reads a table written by Save.
func Load(r io.Reader) (*Table, error) {
	d, err := db.Load(r)
	if err != nil {
		return nil, err
	}
	meta, ok := d.Table(tblMeta)
	if !ok {
		return nil, fmt.Errorf("symtab: missing metadata table")
	}
	top := ""
	for _, row := range meta.All() {
		if row["key"] == "top" {
			top = row["value"].(string)
		}
	}
	if top == "" {
		return nil, fmt.Errorf("symtab: metadata missing top module")
	}
	buildIndexes(d)
	return &Table{db: d, top: top}, nil
}

func (t *Table) breakpointFromRow(row db.Row) Breakpoint {
	instRow, _ := mustTable(t.db, tblInstance).Get(row["instance"].(int64))
	return Breakpoint{
		ID:           row["id"].(int64),
		Filename:     row["filename"].(string),
		Line:         int(row["line_num"].(int64)),
		Col:          int(row["column_num"].(int64)),
		Order:        int(row["ordinal"].(int64)),
		Enable:       row["enable"].(string),
		EnableSrc:    row["enable_src"].(string),
		Instance:     row["instance"].(int64),
		InstanceName: instRow["name"].(string),
	}
}

func mustTable(d *db.DB, name string) *db.Table {
	t, ok := d.Table(name)
	if !ok {
		panic("symtab: missing table " + name)
	}
	return t
}

// BreakpointsAt implements the first §3.4 primitive: translate a source
// location into the emulated breakpoints (one per matching statement
// per instance). line <= 0 matches any line in the file.
func (t *Table) BreakpointsAt(filename string, line int) []Breakpoint {
	bp := mustTable(t.db, tblBreakpoint)
	rows := bp.SelectEq("filename", filename)
	var out []Breakpoint
	for _, row := range rows {
		if line > 0 && int(row["line_num"].(int64)) != line {
			continue
		}
		out = append(out, t.breakpointFromRow(row))
	}
	sortBreakpoints(out)
	return out
}

// AllBreakpoints returns every breakpoint in scheduling order.
func (t *Table) AllBreakpoints() []Breakpoint {
	bp := mustTable(t.db, tblBreakpoint)
	var out []Breakpoint
	for _, row := range bp.All() {
		out = append(out, t.breakpointFromRow(row))
	}
	sortBreakpoints(out)
	return out
}

// sortBreakpoints orders by (file, order, instance) — the pre-computed
// absolute ordering §3.2 requires.
func sortBreakpoints(bps []Breakpoint) {
	sort.SliceStable(bps, func(i, j int) bool {
		a, b := bps[i], bps[j]
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.InstanceName < b.InstanceName
	})
}

// Breakpoint returns one breakpoint by id.
func (t *Table) Breakpoint(id int64) (Breakpoint, bool) {
	row, ok := mustTable(t.db, tblBreakpoint).Get(id)
	if !ok {
		return Breakpoint{}, false
	}
	return t.breakpointFromRow(row), true
}

// ScopeVars implements the second §3.4 primitive: the variable bindings
// visible at a breakpoint, sorted by name.
func (t *Table) ScopeVars(breakpointID int64) []VarBinding {
	sv := mustTable(t.db, tblScopeVar)
	vt := mustTable(t.db, tblVariable)
	var out []VarBinding
	for _, row := range sv.SelectEq("breakpoint", breakpointID) {
		vRow, ok := vt.Get(row["variable"].(int64))
		if !ok {
			continue
		}
		out = append(out, VarBinding{Name: row["name"].(string), RTL: vRow["value"].(string)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResolveScopedVar implements the third §3.4 primitive: translate a
// source-level variable at a breakpoint into the full hierarchical RTL
// name (relative to the generator top; callers apply the testbench
// prefix from Remap).
func (t *Table) ResolveScopedVar(breakpointID int64, name string) (string, error) {
	bp, ok := t.Breakpoint(breakpointID)
	if !ok {
		return "", fmt.Errorf("symtab: unknown breakpoint %d", breakpointID)
	}
	for _, b := range t.ScopeVars(breakpointID) {
		if b.Name == name {
			return bp.InstanceName + "." + b.RTL, nil
		}
	}
	return "", fmt.Errorf("symtab: no variable %q at breakpoint %d", name, breakpointID)
}

// GeneratorVars returns the module-level named objects of an instance,
// sorted by name.
func (t *Table) GeneratorVars(instanceID int64) []VarBinding {
	gv := mustTable(t.db, tblGeneratorVar)
	vt := mustTable(t.db, tblVariable)
	var out []VarBinding
	for _, row := range gv.SelectEq("instance", instanceID) {
		vRow, ok := vt.Get(row["variable"].(int64))
		if !ok {
			continue
		}
		out = append(out, VarBinding{Name: row["name"].(string), RTL: vRow["value"].(string)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResolveInstanceVar implements the fourth §3.4 primitive: translate an
// instance-level variable name into the full hierarchical RTL name.
func (t *Table) ResolveInstanceVar(instancePath, name string) (string, error) {
	inst := mustTable(t.db, tblInstance)
	rows := inst.SelectEq("name", instancePath)
	if len(rows) == 0 {
		return "", fmt.Errorf("symtab: unknown instance %q", instancePath)
	}
	id := rows[0]["id"].(int64)
	for _, b := range t.GeneratorVars(id) {
		if b.Name == name {
			return instancePath + "." + b.RTL, nil
		}
	}
	return "", fmt.Errorf("symtab: instance %q has no variable %q", instancePath, name)
}

// Instances returns all instance paths, sorted.
func (t *Table) Instances() []string {
	inst := mustTable(t.db, tblInstance)
	var out []string
	for _, row := range inst.All() {
		out = append(out, row["name"].(string))
	}
	sort.Strings(out)
	return out
}

// InstanceIDByName returns the id of an instance path.
func (t *Table) InstanceIDByName(path string) (int64, bool) {
	rows := mustTable(t.db, tblInstance).SelectEq("name", path)
	if len(rows) == 0 {
		return 0, false
	}
	return rows[0]["id"].(int64), true
}

// Files lists the generator source files that have breakpoints.
func (t *Table) Files() []string {
	bp := mustTable(t.db, tblBreakpoint)
	seen := map[string]bool{}
	for _, row := range bp.All() {
		seen[row["filename"].(string)] = true
	}
	var out []string
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Lines lists the breakable line numbers of a file.
func (t *Table) Lines(filename string) []int {
	bp := mustTable(t.db, tblBreakpoint)
	seen := map[int]bool{}
	for _, row := range bp.SelectEq("filename", filename) {
		seen[int(row["line_num"].(int64))] = true
	}
	var out []int
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// NumRows returns total row counts (used by the §4.1 symbol-table-size
// experiment).
func (t *Table) NumRows() map[string]int {
	out := map[string]int{}
	for _, name := range t.db.TableNames() {
		tb, _ := t.db.Table(name)
		out[name] = tb.Len()
	}
	return out
}

// TotalRows sums all table rows.
func (t *Table) TotalRows() int {
	n := 0
	for _, v := range t.NumRows() {
		n += v
	}
	return n
}

// Stats renders row counts.
func (t *Table) Stats() string {
	return strings.TrimSpace(t.db.Stats())
}
