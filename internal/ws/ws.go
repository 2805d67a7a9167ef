// Package ws is a minimal RFC 6455 WebSocket implementation (stdlib
// only) sufficient for the hgdb debugging protocol: text frames, close
// handshake, ping/pong. The paper's debuggers connect to the runtime
// over WebSocket, "similar to the gdb remote protocol" (§3.5).
//
// Connections are hardened for the multi-session server: every write
// call carries a deadline, the close handshake is bounded (a peer that
// never answers cannot block Close forever), and Ping lets a writer
// goroutine keep the link alive. One goroutine may read while another
// writes; reads themselves must stay on a single goroutine.
//
// WriteFrames is the one writer: it puts a batch of frames on the
// socket with one write call under one deadline, and WriteText,
// WriteBinary, Ping and the pong and close answers are its one-frame
// case. Server frames go out as a vectored write of header scratch and
// the callers' payloads (one writev on TCP; payloads are not copied, so
// a broadcast frame stays one slice shared by every session); client
// frames are masked into one buffer with their headers.
//
// Limitations (by design, documented): no fragmentation (FIN must be
// set), no extensions, text/binary and control frames only, payloads
// up to 16 MiB.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// guid is the protocol-mandated accept-key suffix.
const guid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// maxPayload guards against absurd frames.
const maxPayload = 16 << 20

// maxControlPayload is the RFC 6455 §5.5 limit for control frames.
const maxControlPayload = 125

// maxHeader is the longest unmasked frame header: 2 bytes plus a 64-bit
// extended length.
const maxHeader = 10

// payloadChunk bounds the allocation made before any payload byte has
// arrived, so a malicious header claiming a 16 MiB frame cannot force
// a 16 MiB allocation up front.
const payloadChunk = 64 << 10

// defaultCloseTimeout bounds the close handshake: how long Close waits
// for the peer's answering close frame before tearing the socket down.
const defaultCloseTimeout = 5 * time.Second

// ErrClosed is returned after the close handshake completes.
var ErrClosed = errors.New("ws: connection closed")

const (
	opText   = 0x1
	opBinary = 0x2
	opClose  = 0x8
	opPing   = 0x9
	opPong   = 0xA
)

// Message opcodes returned by ReadMessage.
const (
	// TextMessage is a UTF-8 text frame (the JSON protocol).
	TextMessage = opText
	// BinaryMessage is a binary frame (the length-prefixed broadcast
	// encoding negotiated at attach).
	BinaryMessage = opBinary
)

// Conn is one WebSocket connection.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // clients mask outgoing frames

	// wmu serializes writes and guards closed and the write scratch:
	// hdr holds an unmasked batch's frame headers and bufs the vectored
	// write's slices. The writer goroutine and the reader's pong and
	// close answers share them.
	wmu    sync.Mutex
	closed bool
	hdr    []byte
	bufs   [][]byte

	// writeTimeout is applied as a deadline to every write call
	// (0 = none); closeTimeout bounds the close handshake. Set both
	// before the connection is shared across goroutines.
	writeTimeout time.Duration
	closeTimeout time.Duration

	// rmu serializes all frame reads: the (single) reader goroutine
	// holds it across each ReadText, and Close's self-drain of the
	// close handshake takes it too — so the shared bufio.Reader is
	// never touched from two goroutines at once, even in the window
	// between a read loop's iterations.
	rmu sync.Mutex
	// closeAcked closes when a reader finishes the stream — peer's
	// close frame consumed, or a terminal read error. Close waits on
	// it instead of sleeping out its timeout on a dead connection.
	closeAcked chan struct{}
	ackOnce    sync.Once

	// bytesRead/bytesWritten count wire bytes (headers + payloads) for
	// the load harness's bytes-on-wire report.
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
}

// BytesRead reports the wire bytes consumed by this connection's frame
// reader (frame headers included).
func (c *Conn) BytesRead() uint64 { return c.bytesRead.Load() }

// BytesWritten reports the wire bytes produced by this connection's
// frame writer (frame headers included).
func (c *Conn) BytesWritten() uint64 { return c.bytesWritten.Load() }

func newConn(nc net.Conn, br *bufio.Reader, client bool) *Conn {
	return &Conn{
		conn:         nc,
		br:           br,
		client:       client,
		closeTimeout: defaultCloseTimeout,
		closeAcked:   make(chan struct{}),
	}
}

// SetWriteTimeout bounds every subsequent write call (a WriteFrames
// batch as a whole, a ping, a single message): a peer that stopped
// reading makes the write fail with a timeout instead of blocking the
// writer forever. Call before sharing the connection across goroutines.
func (c *Conn) SetWriteTimeout(d time.Duration) { c.writeTimeout = d }

// SetCloseTimeout bounds the close handshake performed by Close. Call
// before sharing the connection across goroutines.
func (c *Conn) SetCloseTimeout(d time.Duration) { c.closeTimeout = d }

// acceptKey computes the Sec-WebSocket-Accept header value.
func acceptKey(key string) string {
	h := sha1.Sum([]byte(key + guid))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Upgrade hijacks an HTTP request and performs the server-side
// handshake.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		return nil, fmt.Errorf("ws: not a websocket upgrade request")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		return nil, fmt.Errorf("ws: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return nil, fmt.Errorf("ws: response writer does not support hijacking")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, err
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := rw.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := rw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return newConn(conn, rw.Reader, false), nil
}

// Dial connects to a ws:// URL of the form ws://host:port/path.
func Dial(url string) (*Conn, error) {
	rest, ok := strings.CutPrefix(url, "ws://")
	if !ok {
		return nil, fmt.Errorf("ws: unsupported url %q (want ws://)", url)
	}
	host := rest
	path := "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, path = rest[:i], rest[i:]
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	var keyBytes [16]byte
	if _, err := rand.Read(keyBytes[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\n"+
		"Connection: Upgrade\r\nSec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n",
		path, host, key)
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		conn.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("ws: handshake failed: %s", resp.Status)
	}
	if resp.Header.Get("Sec-WebSocket-Accept") != acceptKey(key) {
		conn.Close()
		return nil, fmt.Errorf("ws: bad accept key")
	}
	return newConn(conn, br, true), nil
}

// Frame is one message for WriteFrames.
type Frame struct {
	// Op is TextMessage or BinaryMessage.
	Op      byte
	Payload []byte
}

// WriteFrames sends frames in order with one write call on the socket,
// under one write deadline. Unmasked frames are written straight from
// the callers' payload slices, so a payload must not change until
// WriteFrames returns.
func (c *Conn) WriteFrames(frames []Frame) error {
	for _, f := range frames {
		if f.Op != TextMessage && f.Op != BinaryMessage {
			return fmt.Errorf("ws: opcode %#x is not a data frame", f.Op)
		}
	}
	return c.write(frames...)
}

// WriteText sends one text message.
func (c *Conn) WriteText(payload []byte) error {
	return c.write(Frame{opText, payload})
}

// WriteBinary sends one binary message.
func (c *Conn) WriteBinary(payload []byte) error {
	return c.write(Frame{opBinary, payload})
}

// Ping sends a ping control frame (payload ≤ 125 bytes). The peer's
// pong is consumed transparently by its ReadText loop.
func (c *Conn) Ping(payload []byte) error {
	if len(payload) > maxControlPayload {
		return fmt.Errorf("ws: ping payload of %d bytes exceeds %d", len(payload), maxControlPayload)
	}
	return c.write(Frame{opPing, payload})
}

// write sends frames unless the close handshake has begun.
func (c *Conn) write(frames ...Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.writeLocked(c.writeTimeout, frames)
}

// writeLocked encodes frames and writes them with one call, under a
// deadline timeout from now (0 = keep the current deadline). Callers
// hold wmu.
func (c *Conn) writeLocked(timeout time.Duration, frames []Frame) error {
	if timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	var n int64
	var err error
	if c.client {
		n, err = c.writeMasked(frames)
	} else {
		n, err = c.writeVectored(frames)
	}
	c.bytesWritten.Add(uint64(n))
	return err
}

// writeVectored writes unmasked frames as one net.Buffers: each frame's
// header from the hdr scratch, then its payload slice as given.
func (c *Conn) writeVectored(frames []Frame) (int64, error) {
	// Grown up front, so appending never moves the headers already
	// sliced into bufs.
	hdr := slices.Grow(c.hdr[:0], maxHeader*len(frames))
	bufs := c.bufs[:0]
	for _, f := range frames {
		start := len(hdr)
		hdr = appendHeader(hdr, f.Op, len(f.Payload), false)
		bufs = append(bufs, hdr[start:])
		if len(f.Payload) > 0 {
			bufs = append(bufs, f.Payload)
		}
	}
	c.hdr, c.bufs = hdr, bufs
	nb := net.Buffers(bufs)
	releaseIO()
	n, err := nb.WriteTo(c.conn)
	clear(bufs) // written payloads must not stay pinned by the scratch
	return n, err
}

// writeMasked writes client frames from one buffer holding each
// frame's header, masking key and masked payload.
func (c *Conn) writeMasked(frames []Frame) (int64, error) {
	size := 0
	for _, f := range frames {
		size += maxHeader + 4 + len(f.Payload)
	}
	buf := make([]byte, 0, size)
	for _, f := range frames {
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return 0, err
		}
		buf = appendHeader(buf, f.Op, len(f.Payload), true)
		buf = append(buf, mask[:]...)
		start := len(buf)
		buf = append(buf, f.Payload...)
		for i := range buf[start:] {
			buf[start+i] ^= mask[i%4]
		}
	}
	n, err := c.conn.Write(buf)
	return int64(n), err
}

// appendHeader appends the header of a final frame carrying n payload
// bytes; masked sets the mask bit (the caller appends the key).
func appendHeader(b []byte, op byte, n int, masked bool) []byte {
	var m byte
	if masked {
		m = 0x80
	}
	switch {
	case n < 126:
		return append(b, 0x80|op, m|byte(n))
	case n <= 0xFFFF:
		return binary.BigEndian.AppendUint16(append(b, 0x80|op, m|126), uint16(n))
	default:
		return binary.BigEndian.AppendUint64(append(b, 0x80|op, m|127), uint64(n))
	}
}

// ReadText reads the next text message, transparently answering pings
// and completing the close handshake. A binary frame is a protocol
// error here — callers that negotiated the binary encoding must use
// ReadMessage. At most one goroutine may read at a time.
func (c *Conn) ReadText() ([]byte, error) {
	op, payload, err := c.ReadMessage()
	if err != nil {
		return nil, err
	}
	if op != opText {
		return nil, fmt.Errorf("ws: unexpected binary frame on a text-only reader")
	}
	return payload, nil
}

// ReadMessage reads the next text or binary message, transparently
// answering pings and completing the close handshake. The returned
// opcode is TextMessage or BinaryMessage. At most one goroutine may
// read at a time.
func (c *Conn) ReadMessage() (byte, []byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	op, msg, err := c.readMessageLocked()
	acquireIO()
	if err != nil {
		// The stream is finished (close handshake or terminal error):
		// release anyone waiting in Close immediately.
		c.ackOnce.Do(func() { close(c.closeAcked) })
	}
	return op, msg, err
}

func (c *Conn) readMessageLocked() (byte, []byte, error) {
	for {
		op, payload, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case opText, opBinary:
			return op, payload, nil
		case opPing:
			if err := c.write(Frame{opPong, payload}); err != nil && !errors.Is(err, ErrClosed) {
				return 0, nil, err
			}
		case opPong:
			// ignore
		case opClose:
			c.wmu.Lock()
			if !c.closed {
				c.closed = true
				// Answer the peer's close; best-effort and bounded.
				c.writeLocked(c.closeTimeout, []Frame{{opClose, payload}})
			}
			c.wmu.Unlock()
			c.conn.Close()
			return 0, nil, ErrClosed
		default:
			return 0, nil, fmt.Errorf("ws: unsupported opcode %#x", op)
		}
	}
}

func (c *Conn) readFrame() (byte, []byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	fin := hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return 0, nil, fmt.Errorf("ws: reserved bits set without a negotiated extension")
	}
	op := hdr[0] & 0x0F
	if !fin {
		return 0, nil, fmt.Errorf("ws: fragmented frames not supported")
	}
	masked := hdr[1]&0x80 != 0
	// RFC 6455 §5.1: client→server frames must be masked, server→client
	// frames must not be. Enforcing this rejects misbehaving peers (and
	// reflected plaintext attacks) early.
	if masked == c.client {
		if masked {
			return 0, nil, fmt.Errorf("ws: server sent a masked frame")
		}
		return 0, nil, fmt.Errorf("ws: client sent an unmasked frame")
	}
	length := uint64(hdr[1] & 0x7F)
	if op >= opClose && length > maxControlPayload {
		return 0, nil, fmt.Errorf("ws: control frame payload of %d bytes exceeds %d", length, maxControlPayload)
	}
	wire := uint64(2) // frame header bytes consumed so far
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
		wire += 2
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
		wire += 8
	}
	if length > maxPayload {
		return 0, nil, fmt.Errorf("ws: frame of %d bytes exceeds limit", length)
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, mask[:]); err != nil {
			return 0, nil, err
		}
		wire += 4
	}
	payload, err := c.readPayload(length)
	if err != nil {
		return 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	c.bytesRead.Add(wire + length)
	return op, payload, nil
}

// readPayload reads a frame body, growing the buffer chunk by chunk so
// the allocation tracks bytes actually received rather than the length
// the header claims.
func (c *Conn) readPayload(length uint64) ([]byte, error) {
	if length <= payloadChunk {
		payload := make([]byte, length)
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	payload := make([]byte, 0, payloadChunk)
	for uint64(len(payload)) < length {
		n := length - uint64(len(payload))
		if n > payloadChunk {
			n = payloadChunk
		}
		start := len(payload)
		payload = append(payload, zeroChunk[:n]...)
		if _, err := io.ReadFull(c.br, payload[start:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// zeroChunk extends the payload buffer chunk by chunk without
// allocating a fresh zeroed slice per chunk.
var zeroChunk [payloadChunk]byte

// Close performs the close handshake from this side: it sends a close
// frame, waits up to the close timeout for the peer's answer (consumed
// here, or by a concurrent ReadText loop), then tears the socket down.
// A peer that never answers — or never drains its receive buffer —
// cannot block Close beyond the timeout.
func (c *Conn) Close() error {
	c.wmu.Lock()
	if c.closed {
		c.wmu.Unlock()
		return nil
	}
	c.closed = true
	// The close frame write is bounded by the close timeout, even when
	// no write timeout is configured: a wedged peer must not stall the
	// handshake's first half either.
	c.writeLocked(c.closeTimeout, []Frame{{Op: opClose}})
	c.wmu.Unlock()

	deadline := time.Now().Add(c.closeTimeout)
	if c.rmu.TryLock() {
		// No reader active: consume the ack ourselves, bounded by a
		// read deadline so a silent peer cannot wedge us. Holding rmu
		// blocks a reader that re-enters meanwhile; it will fail its
		// next read once the socket is torn down below.
		c.conn.SetReadDeadline(deadline)
		for {
			op, _, err := c.readFrame()
			if err != nil || op == opClose {
				break
			}
		}
		defer c.rmu.Unlock()
	} else {
		// A reader goroutine owns the stream; it will consume the
		// peer's close frame and signal, or the timeout fires.
		select {
		case <-c.closeAcked:
		case <-time.After(time.Until(deadline)):
		}
	}
	// A reader that consumed the close ack already tore the socket
	// down; that is a completed handshake, not an error.
	if err := c.conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
