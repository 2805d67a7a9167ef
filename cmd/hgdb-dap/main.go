// Command hgdb-dap is the Debug Adapter Protocol front-end for hgdb:
// it attaches to a running hgdb debug server (hgdb-sim, hgdb-replay,
// or any testbench embedding internal/server) and speaks DAP on
// stdio or a TCP listener, so VS Code, nvim-dap, Theia and the
// JetBrains IDEs can debug hardware generator sources directly.
//
// Usage:
//
//	hgdb-dap -attach 127.0.0.1:9876            # DAP on stdio (editors)
//	hgdb-dap -attach 127.0.0.1:9876 -listen :4711
//	hgdb-dap -attach 127.0.0.1:9900 -hub       # endpoint is a debug hub
//
// In stdio mode (the layout editors launch), one DAP session maps to
// one hgdb debugger session; diagnostics go to stderr. In listen mode
// every accepted TCP connection gets its own adapter — and its own
// hgdb session, so several editors may inspect one simulation under
// the server's usual control arbitration.
//
// With -hub the address is a hgdb-hub registry endpoint: the DAP
// launch request registers a runtime there from its arguments (kind,
// design, vcd, symtab…) and attaches to it, while the DAP attach
// request selects an existing runtime by id ("runtime" argument).
//
// Reverse execution: when the attached server is backed by a replay
// trace, the adapter advertises supportsStepBack and maps DAP's
// stepBack onto hgdb's reverse-step and reverseContinue onto its
// reverse-continue, one walk inside the runtime back to the previous
// armed hit.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/dap"
)

// stdio glues stdin/stdout into one ReadWriter for the adapter.
type stdio struct{}

func (stdio) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdio) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

func main() {
	attach := flag.String("attach", "127.0.0.1:9876", "hgdb debug server to attach to (host:port)")
	hub := flag.Bool("hub", false, "treat the attach address as a debug hub; launch/attach select registry runtimes")
	listen := flag.String("listen", "", "serve DAP on this TCP address instead of stdio")
	quiet := flag.Bool("quiet", false, "suppress diagnostics on stderr")
	flag.Parse()

	logger := log.New(os.Stderr, "hgdb-dap: ", log.LstdFlags)
	if *quiet {
		logger = nil
	}
	logf := func(format string, args ...any) {
		if logger != nil {
			logger.Printf(format, args...)
		}
	}

	if *listen == "" {
		ad, err := dap.New(stdio{}, dap.Options{Addr: *attach, Hub: *hub, Logger: logger})
		if err != nil {
			log.Fatalf("hgdb-dap: %v", err)
		}
		if err := ad.Serve(); err != nil {
			log.Fatalf("hgdb-dap: %v", err)
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("hgdb-dap: %v", err)
	}
	logf("serving DAP on %s, attaching sessions to %s", ln.Addr(), *attach)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// A transient accept failure (e.g. fd exhaustion) must not
			// tear down every live editor session.
			logf("accept: %v", err)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		go func(conn net.Conn) {
			defer conn.Close()
			ad, err := dap.New(conn, dap.Options{Addr: *attach, Hub: *hub, Logger: logger})
			if err != nil {
				logf("session %s: %v", conn.RemoteAddr(), err)
				return
			}
			// Serve maps a clean peer close to nil; anything else is a
			// real protocol/transport failure worth logging.
			if err := ad.Serve(); err != nil {
				logf("session %s: %v", conn.RemoteAddr(), err)
			}
		}(conn)
	}
}
