package ws

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func startEchoServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		go func() {
			defer conn.Close()
			for {
				msg, err := conn.ReadText()
				if err != nil {
					return
				}
				if err := conn.WriteText(msg); err != nil {
					return
				}
			}
		}()
	}))
	t.Cleanup(srv.Close)
	return "ws://" + strings.TrimPrefix(srv.URL, "http://")
}

func TestEchoRoundTrip(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	for _, msg := range []string{"hello", "{\"type\":\"breakpoint\"}", ""} {
		if err := conn.WriteText([]byte(msg)); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := conn.ReadText()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if string(got) != msg {
			t.Fatalf("echo = %q, want %q", got, msg)
		}
	}
}

func TestLargeMessage(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Exercise both the 126 (16-bit) and 127 (64-bit) length encodings.
	for _, size := range []int{200, 70_000} {
		big := strings.Repeat("x", size)
		if err := conn.WriteText([]byte(big)); err != nil {
			t.Fatal(err)
		}
		got, err := conn.ReadText()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size {
			t.Fatalf("size %d echoed as %d", size, len(got))
		}
	}
}

func TestCloseHandshake(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := conn.WriteText([]byte("after close")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestAcceptKey(t *testing.T) {
	// RFC 6455 §1.3 worked example.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("http://example.com"); err == nil {
		t.Fatal("non-ws scheme accepted")
	}
	if _, err := Dial("ws://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable host accepted")
	}
}

func TestUpgradeRejectsPlainRequest(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("plain request upgraded")
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// startStalledServer performs the WebSocket handshake and then goes
// silent: it never reads another byte and never answers the close
// handshake. Returns the ws URL and a counter of accepted conns.
func startStalledServer(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	var accepted atomic.Int32
	hold := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		accepted.Add(1)
		go func() {
			<-hold // hold the conn open, reading nothing
			conn.Close()
		}()
	}))
	t.Cleanup(func() { close(hold); srv.Close() })
	return "ws://" + strings.TrimPrefix(srv.URL, "http://"), &accepted
}

func TestCloseDeadlineStalledPeer(t *testing.T) {
	url, _ := startStalledServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetCloseTimeout(200 * time.Millisecond)
	start := time.Now()
	if err := conn.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %s against a stalled peer", elapsed)
	}
}

func TestCloseDeadlineWithConcurrentReader(t *testing.T) {
	url, _ := startStalledServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetCloseTimeout(200 * time.Millisecond)
	readerDone := make(chan error, 1)
	go func() {
		_, err := conn.ReadText()
		readerDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the reader block
	start := time.Now()
	if err := conn.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %s with a silent peer", elapsed)
	}
	select {
	case <-readerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked after Close")
	}
}

func TestWriteDeadlineWedgedPeer(t *testing.T) {
	url, _ := startStalledServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetWriteTimeout(200 * time.Millisecond)
	conn.SetCloseTimeout(200 * time.Millisecond)
	// The peer never reads: keep writing until the TCP buffers fill and
	// the deadline fires. Bound the whole attempt so a missing deadline
	// fails the test instead of hanging it.
	errs := make(chan error, 1)
	go func() {
		payload := make([]byte, 1<<20)
		for i := 0; i < 256; i++ {
			if err := conn.WriteText(payload); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("256 MiB written into a peer that reads nothing")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write into wedged peer never timed out")
	}
}

func TestMaskEnforcement(t *testing.T) {
	// A server-role conn must reject unmasked frames.
	cl, sv := net.Pipe()
	defer cl.Close()
	go func() {
		// Raw unmasked text frame "hi" (what a compromised client that
		// skips masking would send).
		cl.Write([]byte{0x81, 0x02, 'h', 'i'})
	}()
	srvConn := newConn(sv, bufio.NewReader(sv), false)
	if _, err := srvConn.ReadText(); err == nil {
		t.Fatal("unmasked client frame accepted")
	}
}

func TestControlFrameTooLong(t *testing.T) {
	cl, sv := net.Pipe()
	defer cl.Close()
	go func() {
		// Masked ping claiming a 126-byte payload: control frames are
		// capped at 125.
		cl.Write([]byte{0x89, 0xFE, 0x00, 0x7E})
	}()
	srvConn := newConn(sv, bufio.NewReader(sv), false)
	if _, err := srvConn.ReadText(); err == nil {
		t.Fatal("oversized control frame accepted")
	}
}

func TestPingKeepalive(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping([]byte("keepalive")); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := conn.Ping(make([]byte, 126)); err == nil {
		t.Fatal("oversized ping accepted")
	}
	// The echo peer answers the ping transparently; a following message
	// still round-trips.
	if err := conn.WriteText([]byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	got, err := conn.ReadText()
	if err != nil || string(got) != "after-ping" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestPingPong(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a ping directly; the peer must answer with a pong, and our
	// next ReadText must skip it transparently after an echo.
	if err := conn.write(Frame{opPing, []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText([]byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := conn.ReadText()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseWhileReaderBetweenReads(t *testing.T) {
	// A persistent read loop is momentarily "inactive" between
	// ReadText calls; Close must still coordinate with it instead of
	// reading the stream from a second goroutine.
	url := startEchoServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetCloseTimeout(500 * time.Millisecond)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			if _, err := conn.ReadText(); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond) // gap between reads
		}
	}()
	conn.WriteText([]byte("tick"))
	time.Sleep(75 * time.Millisecond) // land inside the reader's gap
	if err := conn.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-readerDone:
	case <-time.After(3 * time.Second):
		t.Fatal("reader never unblocked after Close")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	// An echo server that mirrors opcodes: binary frames come back
	// binary, text frames come back text.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		go func() {
			defer conn.Close()
			for {
				op, msg, err := conn.ReadMessage()
				if err != nil {
					return
				}
				if op == BinaryMessage {
					err = conn.WriteBinary(msg)
				} else {
					err = conn.WriteText(msg)
				}
				if err != nil {
					return
				}
			}
		}()
	}))
	defer srv.Close()
	conn, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	bin := []byte{0xB5, 0x01, 0x00, 0xFF, 0x80, 0x7F}
	if err := conn.WriteBinary(bin); err != nil {
		t.Fatal(err)
	}
	op, got, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != BinaryMessage {
		t.Fatalf("opcode = %#x, want binary", op)
	}
	if string(got) != string(bin) {
		t.Fatalf("binary echo = %x, want %x", got, bin)
	}
	// Text still round-trips through ReadMessage with the text opcode.
	if err := conn.WriteText([]byte("json")); err != nil {
		t.Fatal(err)
	}
	op, got, err = conn.ReadMessage()
	if err != nil || op != TextMessage || string(got) != "json" {
		t.Fatalf("text via ReadMessage = %#x %q %v", op, got, err)
	}
	// A text-only reader must reject a binary frame rather than hand
	// opaque bytes to a JSON decoder.
	if err := conn.WriteBinary(bin); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadText(); err == nil {
		t.Fatal("ReadText accepted a binary frame")
	}
}

func TestWireByteCounters(t *testing.T) {
	url := startEchoServer(t)
	conn, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("0123456789") // 10 bytes, small-frame encoding
	if err := conn.WriteText(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadText(); err != nil {
		t.Fatal(err)
	}
	// Client frame: 2 header + 4 mask + 10 payload.
	if got := conn.BytesWritten(); got != 16 {
		t.Fatalf("BytesWritten = %d, want 16", got)
	}
	// Server echo: 2 header + 10 payload (unmasked).
	if got := conn.BytesRead(); got != 12 {
		t.Fatalf("BytesRead = %d, want 12", got)
	}
}

// startPair connects a client Conn to a server Conn over loopback TCP
// and returns both ends.
func startPair(t *testing.T) (srv, cl *Conn) {
	t.Helper()
	conns := make(chan *Conn, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		conns <- conn
	}))
	t.Cleanup(hs.Close)
	cl, err := Dial("ws://" + strings.TrimPrefix(hs.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	srv = <-conns
	t.Cleanup(func() { cl.Close(); srv.Close() })
	return srv, cl
}

// wireLen is one frame's size on the wire: header, masking key when
// masked, payload.
func wireLen(n int, masked bool) uint64 {
	h := 2
	switch {
	case n > 0xFFFF:
		h = 10
	case n >= 126:
		h = 4
	}
	if masked {
		h += 4
	}
	return uint64(h + n)
}

func TestWriteFramesRoundTrip(t *testing.T) {
	srv, cl := startPair(t)
	// Every length encoding at its boundaries, text and binary mixed,
	// in two batches whose opcode patterns differ.
	sizes := []int{0, 125, 126, 65535, 65536}
	var batches [2][]Frame
	for b := range batches {
		for i, n := range sizes {
			p := make([]byte, n)
			for j := range p {
				p[j] = byte(b*31 + i*7 + j)
			}
			op := byte(TextMessage)
			if (i+b)%2 == 1 {
				op = BinaryMessage
			}
			batches[b] = append(batches[b], Frame{Op: op, Payload: p})
		}
	}
	for _, side := range []struct {
		name   string
		w, r   *Conn
		masked bool
	}{{"server", srv, cl, false}, {"client", cl, srv, true}} {
		wBefore, rBefore := side.w.BytesWritten(), side.r.BytesRead()
		errs := make(chan error, 1)
		go func() {
			for _, b := range batches {
				if err := side.w.WriteFrames(b); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		var wire uint64
		for _, b := range batches {
			for i, f := range b {
				op, got, err := side.r.ReadMessage()
				if err != nil {
					t.Fatalf("%s: read frame %d: %v", side.name, i, err)
				}
				if op != f.Op || !bytes.Equal(got, f.Payload) {
					t.Fatalf("%s: frame %d = op %#x, %d bytes; want op %#x, %d bytes",
						side.name, i, op, len(got), f.Op, len(f.Payload))
				}
				wire += wireLen(len(f.Payload), side.masked)
			}
		}
		if err := <-errs; err != nil {
			t.Fatalf("%s: WriteFrames: %v", side.name, err)
		}
		if got := side.w.BytesWritten() - wBefore; got != wire {
			t.Fatalf("%s: BytesWritten grew by %d, want %d", side.name, got, wire)
		}
		if got := side.r.BytesRead() - rBefore; got != wire {
			t.Fatalf("%s: BytesRead grew by %d, want %d", side.name, got, wire)
		}
	}
	if err := cl.WriteFrames([]Frame{{Op: opPing}}); err == nil {
		t.Fatal("WriteFrames sent a control frame")
	}
	// The server reads on, so it answers the close handshake.
	go func() {
		for {
			if _, _, err := srv.ReadMessage(); err != nil {
				return
			}
		}
	}()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Conn{cl, srv} {
		if err := c.WriteFrames(batches[0]); !errors.Is(err, ErrClosed) {
			t.Fatalf("WriteFrames after close = %v, want ErrClosed", err)
		}
	}
}
