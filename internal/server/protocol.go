// Package server implements the blockserver network service of paper §5.5:
// Lepton listens on a Unix-domain socket or TCP and speaks a simple
// length-prefixed stream protocol; overloaded blockservers "outsource"
// conversions over TCP to other machines chosen by the power of two random
// choices.
//
// Connections are persistent: because every request and response is length
// framed, a client may issue any number of sequential requests on one
// connection (see Client). The original one-shot exchange — request
// written, write side shut down, response read back, as the deployed
// system did — remains fully supported: the server simply sees EOF on the
// next read and closes its side.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Operation codes.
const (
	OpCompress   = byte('C')
	OpDecompress = byte('D')
	OpLoad       = byte('L') // load probe for power-of-two choices

	// OpCompressLocal is OpCompress for a job another blockserver has
	// already outsourced: served the same way but never outsourced again.
	// A server predating it answers StatusError ("unknown op"), which the
	// forwarder handles by compressing locally.
	OpCompressLocal = byte('c')

	// Store-backed operations (require Blockserver.Store). The codec runs
	// on the client, so chunks cross the wire compressed (the §7 bandwidth
	// saving); a server converting what it receives (§5.5) is OpCompress.
	OpPutChunkCompressed = byte('U') // body: Lepton chunk -> server verifies+stores, returns 32-byte hash
	OpGetChunkCompressed = byte('H') // body: hash -> returns stored compressed bytes

	// OpListChunks is the ranged scan behind warm restart and anti-entropy:
	// body is a 32-byte exclusive-start hash plus a 4-byte LE page limit;
	// the response is the node's stored hashes greater than the cursor, in
	// ascending order, concatenated 32 bytes each. An empty response means
	// the scan is complete. Paging keeps each response under maxPayload no
	// matter how many chunks a disk holds.
	OpListChunks = byte('S')

	// OpGetRange serves a byte range of one chunk's reconstruction without
	// decoding the whole chunk: body is a 32-byte hash, an 8-byte LE byte
	// offset, and a 4-byte LE length; the response is exactly the requested
	// slice of the raw bytes (clamped at the chunk's reconstructed size, so
	// a range past the end returns an empty body, like an HTTP suffix read).
	// Indexed containers decode only the arithmetic segments the range
	// touches; legacy containers fall back to a full decode server-side.
	OpGetRange = byte('R')
)

// getRangeReqLen is the fixed OpGetRange body: hash + u64 offset + u32 len.
const getRangeReqLen = 32 + 8 + 4

// encodeGetRange builds an OpGetRange request body, rejecting bounds the
// protocol cannot carry (negative, or a length no response frame can hold)
// before any bytes go on the wire.
func encodeGetRange(h [32]byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("server: negative range off=%d n=%d", off, n)
	}
	if n > maxPayload {
		return nil, fmt.Errorf("server: range of %d bytes exceeds the %d-byte response limit", n, maxPayload)
	}
	req := make([]byte, getRangeReqLen)
	copy(req, h[:])
	binary.LittleEndian.PutUint64(req[32:], uint64(off))
	binary.LittleEndian.PutUint32(req[40:], uint32(n))
	return req, nil
}

// ListChunksPageMax caps an OpListChunks page: the largest hash count
// whose response still fits a frame, rounded down to a tidy number.
const ListChunksPageMax = (maxPayload / 32) / 2

// Response status codes. StatusError marks a deterministic rejection (the
// same payload would be rejected by any node); StatusRetry marks a
// node-local decline — a per-request timeout, a drain force-cancel, a
// cancelled queue wait — where the identical request may well succeed on
// another node, so routed clients retry those elsewhere; StatusNotFound
// marks a store read for a chunk this node does not hold, the signal
// replicated readers key read-repair on (a status byte, not error prose,
// so mixed-version fleets mid-rollout cannot misclassify it).
const (
	StatusOK       = byte(0)
	StatusError    = byte(1)
	StatusRetry    = byte(2)
	StatusNotFound = byte(3)
)

// maxPayload bounds a request body (a chunk plus slack).
const maxPayload = 8 << 20

// ErrPayloadTooLarge marks a request body over the protocol limit: a
// deterministic refusal that indicts the payload, not the node — batch
// callers (the backfill engine) quarantine the file instead of retrying.
var ErrPayloadTooLarge = errors.New("server: request exceeds the protocol payload limit")

// checkPayloadSize rejects a request body the server would refuse for
// size before any bytes go on the wire. The server's refusal is a
// connection teardown (ReadRequest cannot answer in-band without draining
// the oversized body), which routed clients would misread as a node
// failure — one over-limit JPEG must not evict the fleet node by node.
func checkPayloadSize(payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: %d bytes > %d", ErrPayloadTooLarge, len(payload), maxPayload)
	}
	return nil
}

// WriteFrame sends op+payload, leaving the write side open so further
// requests can follow on the same connection. Header and payload go out in
// one vectored write (a single writev syscall on TCP and Unix sockets, and
// a single TCP segment for small frames — the header no longer rides
// alone).
func WriteFrame(conn net.Conn, op byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if len(payload) == 0 {
		_, err := conn.Write(hdr[:])
		return err
	}
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(conn)
	return err
}

// ReadRequest reads one framed request from r. The payload goes into buf
// when it fits buf's capacity, so a caller that passes back each returned
// payload reads every request into one buffer; otherwise (a nil buf
// included) it is read into a new buffer. The payload is valid until buf
// is reused.
func ReadRequest(r io.Reader, buf []byte) (op byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxPayload {
		return 0, nil, fmt.Errorf("server: request of %d bytes exceeds limit", n)
	}
	if payload, err = readBody(r, n, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// bodyStep is the first buffer a body that does not fit the reuse buffer
// is read into.
const bodyStep = 64 << 10

// readBody reads an n-byte frame body from r, into buf when n fits its
// capacity. A new buffer starts at bodyStep and doubles as bytes arrive,
// so a peer that declares a large body and sends less of it pins memory in
// proportion to what it sent, not to what it declared.
func readBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = make([]byte, 0, min(n, bodyStep))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*cap(buf), n)), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		if err == io.EOF && len(buf) > 0 {
			// A body cut at a step boundary is as short as one cut
			// inside a step, not a clean end of the stream.
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+m]
	}
	return buf, nil
}

// WriteResponse sends status+payload as one vectored write (see
// WriteFrame).
func WriteResponse(conn net.Conn, status byte, payload []byte) error {
	if len(payload) == 0 {
		return WriteResponseHeader(conn, status, 0)
	}
	var hdr [5]byte
	hdr[0] = status
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(conn)
	return err
}

// WriteResponseHeader sends only the status+length header; exactly n body
// bytes must follow. Servers use it to stream a decode into the connection
// as segments complete instead of buffering the whole reconstruction.
func WriteResponseHeader(conn net.Conn, status byte, n uint32) error {
	var hdr [5]byte
	hdr[0] = status
	binary.LittleEndian.PutUint32(hdr[1:], n)
	_, err := conn.Write(hdr[:])
	return err
}

// StreamBodyError marks a response that died after its header arrived:
// the peer was alive enough to frame a response, so the failure is
// request-scoped — a mid-stream decode abort (the server's only way to
// signal a shortfall on an already-framed response is tearing the
// connection down) or a payload that fails the same way everywhere.
// Routed clients retry elsewhere but do not evict the node for it.
type StreamBodyError struct{ Err error }

func (e *StreamBodyError) Error() string { return "server: response died mid-body: " + e.Err.Error() }
func (e *StreamBodyError) Unwrap() error { return e.Err }

// ReadResponse reads a response.
func ReadResponse(conn net.Conn) (status byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxPayload {
		return 0, nil, fmt.Errorf("server: response of %d bytes exceeds limit", n)
	}
	if payload, err = readBody(conn, n, nil); err != nil {
		return 0, nil, &StreamBodyError{Err: err}
	}
	return hdr[0], payload, nil
}

// watchCtx interrupts conn's blocking I/O when ctx is cancelled by moving
// its deadline into the past; the returned stop func releases the watcher
// and waits for it to exit, so a watcher woken late can never move the
// deadline of a persistent connection's next request. A ctx that can never
// be cancelled costs nothing.
func watchCtx(ctx context.Context, conn net.Conn) (stop func()) {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			_ = conn.SetDeadline(time.Now().Add(-time.Second))
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		<-exited
	}
}

// ctxOr prefers the context's error over the I/O error it caused.
func ctxOr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

func splitAddr(addr string) (network, address string, err error) {
	switch {
	case len(addr) > 5 && addr[:5] == "unix:":
		return "unix", addr[5:], nil
	case len(addr) > 4 && addr[:4] == "tcp:":
		return "tcp", addr[4:], nil
	default:
		return "", "", errors.New("server: address must be unix:<path> or tcp:<host:port>")
	}
}
