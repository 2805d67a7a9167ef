// Command hgdb is the gdb-inspired interactive debugger client (§3.5).
// It attaches to an hgdb runtime (started by hgdb-sim or hgdb-replay,
// or embedded in any testbench via internal/server) over the WebSocket
// debugging protocol.
//
// Usage:
//
//	hgdb [-runtime <id>] <host:port>     interactive session
//	hgdb runtimes <host:port>            list a hub's runtime registry
//	hgdb launch <host:port> [-name n] [-kind sim|replay] [-design d]
//	            [-debug] [-vcd f] [-symtab f]
//	hgdb evict <host:port> <id>          drain and remove a hub runtime
//
// Against a debug hub (hgdb-hub), -runtime routes the interactive
// session to one registry runtime; the runtimes/launch/evict
// subcommands drive the registry itself over a control session.
//
// Commands:
//
//	b <file>:<line> [if <cond>]   set breakpoint (expands per instance)
//	delete <file>[:<line>]        remove breakpoints
//	info breakpoints|files|instances|status|lines <file>
//	c                             continue
//	s                             step (next enabled statement)
//	rs                            reverse step
//	rc                            reverse continue (replay backends)
//	p <expr> [@<instance>]        evaluate expression
//	get <path> / set <path> <v>   raw signal access
//	pause                         break at next statement
//	detach                        detach runtime, design runs free
//	sessions                      list attached debugger sessions
//	release                       hand control to the oldest observer
//	claim                         take control when it is vacant
//	q                             quit
//
// Any number of hgdb instances may attach to the same runtime. The
// first to attach holds control (may resume the simulation and set
// values); the rest observe — they receive every stop broadcast and
// may inspect state, even while the simulation is running.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proto"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hgdb [-runtime <id>] <host:port>
       hgdb runtimes <host:port>
       hgdb launch <host:port> [-name n] [-kind sim|replay] [-design d] [-debug] [-vcd f] [-symtab f]
       hgdb evict <host:port> <id>`)
	os.Exit(2)
}

func main() {
	args := os.Args[1:]
	if len(args) >= 1 {
		switch args[0] {
		case "runtimes", "launch", "evict":
			hubCommand(args[0], args[1:])
			return
		}
	}
	fs := flag.NewFlagSet("hgdb", flag.ExitOnError)
	runtimeID := fs.String("runtime", "", "hub registry runtime id to attach to")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	cl := client.NewOpts(fs.Arg(0), client.Options{Runtime: *runtimeID})
	// Subscribe before connecting, so the welcome and a stop replayed
	// to a late attacher are printed too.
	events := cl.Subscribe(16)
	if err := cl.Connect(); err != nil {
		fmt.Fprintf(os.Stderr, "hgdb: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()

	// Print events as they arrive.
	go func() {
		for ev := range events.C {
			if ev.Type == "disconnect" {
				fmt.Println("\nconnection closed")
				os.Exit(0)
			}
			printEvent(ev)
			fmt.Print("(hgdb) ")
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("(hgdb) ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := execute(cl, line); quit {
				return
			}
		}
		fmt.Print("(hgdb) ")
	}
}

// hubCommand drives a hub's runtime registry over a control session.
func hubCommand(cmd string, args []string) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hgdb %s: %v\n", cmd, err)
		os.Exit(1)
	}
	dial := func(addr string) *client.HubClient {
		hc, err := client.DialHub(addr)
		if err != nil {
			fail(err)
		}
		return hc
	}
	switch cmd {
	case "runtimes":
		if len(args) != 1 {
			usage()
		}
		hc := dial(args[0])
		defer hc.Close()
		infos, err := hc.Runtimes()
		if err != nil {
			fail(err)
		}
		if len(infos) == 0 {
			fmt.Println("no runtimes registered")
			return
		}
		fmt.Printf("%-10s %-7s %-9s %-12s %-7s %-9s %-7s %s\n",
			"ID", "KIND", "STATE", "TOP", "MODE", "SESSIONS", "UPTIME", "SOURCE")
		for _, info := range infos {
			shared := ""
			if info.SymtabShared {
				shared = " (shared symtab)"
			}
			fmt.Printf("%-10s %-7s %-9s %-12s %-7s %-9d %-7s %s%s\n",
				info.ID, info.Kind, info.State, info.Top, info.Mode,
				info.Sessions, fmt.Sprintf("%.0fs", info.UptimeSec), info.Source, shared)
		}
	case "launch":
		fs := flag.NewFlagSet("hgdb launch", flag.ExitOnError)
		name := fs.String("name", "", "runtime id (empty = assigned by the hub)")
		kind := fs.String("kind", "sim", "runtime kind: sim or replay")
		design := fs.String("design", "", "sim design (counter, fpu)")
		debug := fs.Bool("debug", false, "seed the design's debug bug (sim)")
		vcdPath := fs.String("vcd", "", "trace file (replay)")
		symtabPath := fs.String("symtab", "", "symbol-table file (replay)")
		if len(args) < 1 {
			usage()
		}
		fs.Parse(args[1:])
		hc := dial(args[0])
		defer hc.Close()
		info, err := hc.Launch(proto.RuntimeSpec{
			Name: *name, Kind: *kind, Design: *design,
			Debug: *debug, VCD: *vcdPath, Symtab: *symtabPath,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("launched %s: %s %s (%s)\n", info.ID, info.Kind, info.Top, info.State)
	case "evict":
		if len(args) != 2 {
			usage()
		}
		hc := dial(args[0])
		defer hc.Close()
		if err := hc.Evict(args[1]); err != nil {
			fail(err)
		}
		fmt.Printf("evicted %s\n", args[1])
	}
}

func printEvent(ev *proto.Event) {
	switch ev.Type {
	case "welcome":
		fmt.Printf("\nattached: design %s (%s build, %d source files) as session %d [%s], %d session(s) connected\n",
			ev.Top, ev.Mode, ev.Files, ev.SessionID, ev.Role, ev.Peers)
	case "stop":
		printStop(ev.Stop)
	case "attach":
		fmt.Printf("\nsession %d attached as %s (%d connected)\n", ev.SessionID, ev.Role, ev.Peers)
	case "goodbye":
		if ev.Reason == "shutdown" {
			fmt.Println("\nserver is shutting down")
			return
		}
		fmt.Printf("\nsession %d detached (%d left)\n", ev.SessionID, ev.Peers)
	case "control":
		fmt.Printf("\ncontrol moved to session %d (%s)\n", ev.Controller, ev.Reason)
	}
}

func printStop(stop *core.StopEvent) {
	kind := "breakpoint"
	if stop.StepStop {
		kind = "step"
	}
	dir := ""
	if stop.Reverse {
		dir = " (reverse)"
	}
	if len(stop.Watch) > 0 {
		fmt.Printf("\nwatchpoint hit [time %d]\n", stop.Time)
		for _, wh := range stop.Watch {
			if wh.OldDisplay != "" || wh.NewDisplay != "" {
				// Four-state / wide values travel as rendered literals.
				fmt.Printf("  #%d %s @%s: %s -> %s\n", wh.ID, wh.Expr, wh.Instance, wh.OldDisplay, wh.NewDisplay)
				continue
			}
			fmt.Printf("  #%d %s @%s: %d -> %d\n", wh.ID, wh.Expr, wh.Instance, wh.Old, wh.New)
		}
		return
	}
	fmt.Printf("\n%s hit%s at %s:%d  [time %d]\n", kind, dir, stop.File, stop.Line, stop.Time)
	for i, th := range stop.Threads {
		fmt.Printf("  thread %d: %s\n", i+1, th.Instance)
		printVars("locals", th.Locals)
		if i == 0 { // generator variables only for the focused thread
			printVars("generator", th.Generator)
		}
	}
}

func printVars(label string, vars []core.Variable) {
	if len(vars) == 0 {
		return
	}
	fmt.Printf("    %s:\n", label)
	for _, sv := range core.Structure(vars) {
		printStructured(sv, "      ")
	}
}

func printStructured(sv core.StructuredVar, indent string) {
	if sv.Leaf != nil && len(sv.Children) == 0 {
		if sv.Leaf.Unknown {
			// The runtime could not read the signal this stop (replay
			// gap / optimized-away net); keep the slot visible.
			fmt.Printf("%s%s = <unknown>\n", indent, sv.Name)
			return
		}
		if sv.Leaf.HasX() || len(sv.Leaf.Hi) > 0 {
			// Four-state or >64-bit: the Verilog literal is the value.
			fmt.Printf("%s%s = %s (%d bits)\n", indent, sv.Name, sv.Leaf.Display(), sv.Leaf.Width)
			return
		}
		fmt.Printf("%s%s = %d (0x%x, %d bits)\n", indent, sv.Name, sv.Leaf.Value, sv.Leaf.Value, sv.Leaf.Width)
		return
	}
	fmt.Printf("%s%s:\n", indent, sv.Name)
	for _, c := range sv.Children {
		printStructured(c, indent+"  ")
	}
}

// execute runs one command line; returns true to quit.
func execute(cl *client.Client, line string) bool {
	fields := strings.Fields(line)
	cmd := fields[0]
	args := fields[1:]
	switch cmd {
	case "q", "quit", "exit":
		return true
	case "b", "break":
		doBreak(cl, args)
	case "delete", "d":
		doDelete(cl, args)
	case "info":
		doInfo(cl, args)
	case "c", "continue":
		report(cl.Command("continue"))
	case "s", "step":
		report(cl.Command("step"))
	case "rs", "reverse-step":
		report(cl.Command("reverse-step"))
	case "rc", "reverse-continue":
		report(cl.Command("reverse-continue"))
	case "pause":
		report(cl.Command("pause"))
	case "detach":
		report(cl.Command("detach"))
	case "p", "print":
		doPrint(cl, args)
	case "watch", "w":
		doWatch(cl, args)
	case "sessions":
		doSessions(cl)
	case "release":
		report(cl.Release())
	case "claim":
		report(cl.Claim())
	case "get":
		if len(args) != 1 {
			fmt.Println("usage: get <path>")
			return false
		}
		v, err := cl.GetValue(args[0])
		if err != nil {
			fmt.Println(err)
			return false
		}
		if v.Display != "" {
			fmt.Printf("%s = %s (%d bits)\n", args[0], v.Display, v.Width)
		} else {
			fmt.Printf("%s = %d (0x%x, %d bits)\n", args[0], v.Value, v.Value, v.Width)
		}
	case "set":
		if len(args) != 2 {
			fmt.Println("usage: set <path> <value>")
			return false
		}
		v, err := strconv.ParseUint(args[1], 0, 64)
		if err != nil {
			fmt.Println(err)
			return false
		}
		report(cl.SetValue(args[0], v))
	case "help", "h":
		fmt.Println("commands: b <file>:<line> [if cond] | watch <expr> [@inst] | delete | info | c | s | rs | rc | p <expr> [@inst] | get | set | pause | detach | sessions | release | claim | q")
	default:
		fmt.Printf("unknown command %q (try help)\n", cmd)
	}
	return false
}

func report(err error) {
	if err != nil {
		fmt.Println(err)
	}
}

func parseLocation(s string) (string, int, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return s, 0, nil
	}
	line, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("bad location %q", s)
	}
	return s[:i], line, nil
}

func doBreak(cl *client.Client, args []string) {
	if len(args) == 0 {
		fmt.Println("usage: b <file>:<line> [if <cond>]")
		return
	}
	file, line, err := parseLocation(args[0])
	if err != nil {
		fmt.Println(err)
		return
	}
	cond := ""
	if len(args) >= 3 && args[1] == "if" {
		cond = strings.Join(args[2:], " ")
	}
	ids, err := cl.AddBreakpoint(file, line, cond)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("breakpoint set: %d emulated breakpoint(s) at %s:%d\n", len(ids), file, line)
}

func doDelete(cl *client.Client, args []string) {
	if len(args) == 0 {
		report(cl.ClearBreakpoints())
		fmt.Println("all breakpoints removed")
		return
	}
	file, line, err := parseLocation(args[0])
	if err != nil {
		fmt.Println(err)
		return
	}
	n, err := cl.RemoveBreakpoint(file, line)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("removed %d breakpoint(s)\n", n)
}

func doInfo(cl *client.Client, args []string) {
	if len(args) == 0 {
		fmt.Println("usage: info breakpoints|files|instances|status|lines <file>")
		return
	}
	switch args[0] {
	case "breakpoints", "b":
		infos, err := cl.ListBreakpoints()
		if err != nil {
			fmt.Println(err)
			return
		}
		if len(infos) == 0 {
			fmt.Println("no breakpoints")
			return
		}
		for _, bp := range infos {
			cond := ""
			if bp.EnableSrc != "" {
				cond = "  when " + bp.EnableSrc
			}
			fmt.Printf("  #%d %s:%d  %s%s\n", bp.ID, bp.Filename, bp.Line, bp.Instance, cond)
		}
	case "files", "instances", "status":
		raw, err := cl.Info(args[0], "")
		if err != nil {
			fmt.Println(err)
			return
		}
		printJSON(raw)
	case "lines":
		if len(args) != 2 {
			fmt.Println("usage: info lines <file>")
			return
		}
		raw, err := cl.Info("lines", args[1])
		if err != nil {
			fmt.Println(err)
			return
		}
		printJSON(raw)
	default:
		fmt.Printf("unknown info topic %q\n", args[0])
	}
}

func printJSON(raw json.RawMessage) {
	var pretty any
	if err := json.Unmarshal(raw, &pretty); err != nil {
		fmt.Println(string(raw))
		return
	}
	out, _ := json.MarshalIndent(pretty, "  ", "  ")
	fmt.Println("  " + string(out))
}

func doSessions(cl *client.Client) {
	infos, err := cl.Sessions()
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, si := range infos {
		self := ""
		if si.ID == cl.SessionID() {
			self = "  (you)"
		}
		drops := ""
		if si.Dropped > 0 {
			drops = fmt.Sprintf("  %d events dropped", si.Dropped)
		}
		fmt.Printf("  session %d  %s%s%s\n", si.ID, si.Role, drops, self)
	}
}

func doWatch(cl *client.Client, args []string) {
	if len(args) == 0 {
		fmt.Println("usage: watch <expr> [@<instance>] | watch -d <id>")
		return
	}
	if args[0] == "-d" && len(args) == 2 {
		id, err := strconv.Atoi(args[1])
		if err != nil {
			fmt.Println(err)
			return
		}
		report(cl.RemoveWatch(id))
		return
	}
	instance := ""
	exprParts := args
	if last := args[len(args)-1]; strings.HasPrefix(last, "@") {
		instance = last[1:]
		exprParts = args[:len(args)-1]
	}
	id, err := cl.AddWatch(instance, strings.Join(exprParts, " "))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("watchpoint %d set\n", id)
}

func doPrint(cl *client.Client, args []string) {
	if len(args) == 0 {
		fmt.Println("usage: p <expr> [@<instance>]")
		return
	}
	instance := ""
	exprParts := args
	if last := args[len(args)-1]; strings.HasPrefix(last, "@") {
		instance = last[1:]
		exprParts = args[:len(args)-1]
	}
	v, err := cl.Evaluate(instance, strings.Join(exprParts, " "))
	if err != nil {
		fmt.Println(err)
		return
	}
	if v.Display != "" {
		fmt.Printf("= %s (%d bits)\n", v.Display, v.Width)
		return
	}
	fmt.Printf("= %d (0x%x, %d bits)\n", v.Value, v.Value, v.Width)
}
