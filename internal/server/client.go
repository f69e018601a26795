package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a persistent connection to a blockserver. It issues any number
// of sequential requests over a single TCP or Unix connection, which
// removes the per-request dial/teardown that dominated small-request
// latency at peak (§5.5's outsourcing overhead). A Client is
// safe for concurrent use; requests are serialized on the connection.
//
// Every exchange is DoCtx (Load wraps the probe). Cancelling its context
// mid-exchange tears the connection down, and the server, seeing the
// disconnect, cancels the conversion on its side too.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
}

// RemoteError is a failure the server reported in-band: the exchange
// completed and the connection remains usable. Transient distinguishes a
// node-local decline (StatusRetry: per-request timeout, drain
// force-cancel — the same request may succeed on another node, and the
// Fleet retries it there) from a deterministic rejection (StatusError: any
// node would reject the payload identically, so retrying is futile).
// NotFound (StatusNotFound) marks a store read for a chunk the node does
// not hold — deterministic for that node, but the read-repairable signal
// for replicated readers. Transport failures (dial errors, broken
// framing, deadlines) are returned as ordinary errors instead.
type RemoteError struct {
	Msg       string
	Transient bool
	NotFound  bool
}

func (e *RemoteError) Error() string { return "server: remote error: " + e.Msg }

// DialContext connects to addr ("unix:<path>" or "tcp:<host:port>") under
// a context.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	network, address, err := splitAddr(addr)
	if err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, address)
	if err != nil {
		return nil, ctxOr(ctx, err)
	}
	return &Client{conn: conn}, nil
}

// DoCtx performs one request/response exchange on the persistent
// connection under a context. A transport-level failure (broken framing,
// an expired deadline, a cancelled ctx) tears the connection down — the
// stream position is unknown, so a retry could read a stale response as
// its own — and later calls report the client closed; cancellation
// returns ctx.Err(). Failures the server reports in-band come back as
// *RemoteError and leave the connection usable.
func (c *Client) DoCtx(ctx context.Context, op byte, payload []byte) ([]byte, error) {
	if err := checkPayloadSize(payload); err != nil {
		// Refusing client-side beats burning the upload: the server's only
		// answer to an over-limit body is tearing the connection down.
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, fmt.Errorf("server: client is closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(dl)
	} else {
		_ = c.conn.SetDeadline(time.Time{})
	}
	stop := watchCtx(ctx, c.conn)
	defer stop()
	if err := WriteFrame(c.conn, op, payload); err != nil {
		c.teardown()
		return nil, ctxOr(ctx, err)
	}
	status, resp, err := ReadResponse(c.conn)
	if err != nil {
		c.teardown()
		return nil, ctxOr(ctx, err)
	}
	if status != StatusOK {
		return nil, &RemoteError{Msg: string(resp), Transient: status == StatusRetry, NotFound: status == StatusNotFound}
	}
	return resp, nil
}

// Load probes the server's in-flight conversion count — the power-of-two
// choices signal (§5.5).
func (c *Client) Load(ctx context.Context) (uint32, error) {
	resp, err := c.DoCtx(ctx, OpLoad, nil)
	if err != nil {
		return 0, err
	}
	if len(resp) < 4 {
		return 0, fmt.Errorf("server: short load response (%d bytes)", len(resp))
	}
	return binary.LittleEndian.Uint32(resp), nil
}

// teardown closes and clears the connection; callers hold c.mu.
func (c *Client) teardown() {
	_ = c.conn.Close()
	c.conn = nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
