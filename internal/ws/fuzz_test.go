package ws

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// scriptConn is a net.Conn whose read side replays a captured byte
// script and whose write side discards — the harness the frame-parser
// fuzzer runs the connection against.
type scriptConn struct {
	r io.Reader
}

func (s *scriptConn) Read(p []byte) (int, error)       { return s.r.Read(p) }
func (s *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (s *scriptConn) Close() error                     { return nil }
func (s *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (s *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (s *scriptConn) SetDeadline(time.Time) error      { return nil }
func (s *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (s *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptedConn builds a Conn of the given role whose incoming bytes
// are exactly data.
func scriptedConn(data []byte, client bool) *Conn {
	sc := &scriptConn{r: bytes.NewReader(data)}
	return newConn(sc, bufio.NewReader(sc), client)
}

// capture runs fn against a conn whose writes are recorded, returning
// the bytes the conn put on the wire. Used to seed the corpus with
// real traffic produced by our own encoder.
type captureConn struct {
	scriptConn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

func captureFrames(client bool, fn func(*Conn)) []byte {
	cc := &captureConn{}
	conn := newConn(cc, bufio.NewReader(cc), client)
	fn(conn)
	return cc.buf.Bytes()
}

// FuzzReadFrame throws arbitrary byte streams at the frame parser in
// both roles. The invariants: no panic, no runaway allocation (payload
// growth is bounded by bytes actually received), and every returned
// message respects the protocol limits.
func FuzzReadFrame(f *testing.F) {
	// Seed with real traffic from our own encoder: the messages the
	// debug protocol actually exchanges, at every length encoding, plus
	// control frames and torn prefixes.
	seeds := [][]byte{
		captureFrames(true, func(c *Conn) { // masked client traffic
			c.WriteText([]byte(`{"type":"breakpoint","action":"add","filename":"adder.go","line":41,"token":"1"}`))
			c.WriteText([]byte(`{"type":"command","command":"continue","token":"2"}`))
			c.WriteText([]byte(`{"type":"session","action":"list","token":"3"}`))
			c.Ping([]byte("keepalive"))
			c.WriteText(bytes.Repeat([]byte("x"), 200))    // 16-bit length
			c.WriteText(bytes.Repeat([]byte("y"), 70_000)) // 64-bit length
			c.write(Frame{Op: opClose})
		}),
		captureFrames(false, func(c *Conn) { // unmasked server traffic
			c.WriteText([]byte(`{"type":"welcome","session":1,"role":"controller","top":"Counter"}`))
			c.WriteText([]byte(`{"type":"stop","stop":{"time":3,"file":"adder.go","line":41}}`))
			c.write(Frame{opPong, []byte("keepalive")})
			c.write(Frame{Op: opClose})
		}),
		{0x81},                         // torn header
		{0x81, 0xFE, 0xFF},             // torn 16-bit length
		{0x81, 0xFF, 0xFF, 0xFF, 0xFF}, // torn 64-bit length
		{0x81, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // 16 EiB claim
		{0x01, 0x80, 1, 2, 3, 4},                                     // fragmented (FIN clear)
		{0xF1, 0x80, 1, 2, 3, 4},                                     // reserved bits set
		{0x88, 0xFE, 0x00, 0x7E},                                     // oversized control frame
		{0x89, 0x85, 1, 2, 3, 4, 0, 0, 0, 0, 0},                      // masked ping
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, role := range []bool{false, true} {
			conn := scriptedConn(data, role)
			for i := 0; i < 64; i++ {
				msg, err := conn.ReadText()
				if err != nil {
					break
				}
				if len(msg) > maxPayload {
					t.Fatalf("message of %d bytes exceeds maxPayload", len(msg))
				}
			}
		}
	})
}
