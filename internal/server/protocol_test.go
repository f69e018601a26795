package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"lepton/internal/store"
)

// FuzzReadRequest reads one frame out of arbitrary bytes, with no reuse
// buffer and with one of reuseCap bytes' capacity. It must never panic.
// It returns the header's op and exactly the payload bytes after the
// 5-byte header, or an error when the input ends first. It refuses a
// declared length over maxPayload before reading the payload. It reads
// into the reuse buffer whenever the payload fits that buffer's capacity.
// The seed corpus is in testdata/fuzz/FuzzReadRequest; regenerate it with
// `go run ./cmd/corpusgen -fuzz-seeds .`.
func FuzzReadRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, reuseCap uint16) {
		for _, buf := range [][]byte{nil, make([]byte, 0, int(reuseCap))} {
			op, payload, err := ReadRequest(bytes.NewReader(frame), buf)
			short := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
			if len(frame) < 5 {
				if !short {
					t.Fatalf("%d-byte frame: err %v, want EOF", len(frame), err)
				}
				continue
			}
			n := int64(binary.LittleEndian.Uint32(frame[1:5]))
			switch {
			case n > maxPayload:
				if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
					t.Fatalf("declared %d bytes over the %d limit: err %v", n, maxPayload, err)
				}
			case int64(len(frame)) < 5+n:
				if !short {
					t.Fatalf("declared %d bytes with %d present: err %v, want EOF", n, len(frame)-5, err)
				}
			case err != nil:
				t.Fatalf("complete %d-byte request: %v", n, err)
			case op != frame[0] || !bytes.Equal(payload, frame[5:5+n]):
				t.Fatalf("got op %#x and %d payload bytes, want op %#x and the %d bytes after the header",
					op, len(payload), frame[0], n)
			case n > 0 && int64(cap(buf)) >= n && &payload[0] != &buf[:1][0]:
				t.Fatalf("%d-byte payload fits the %d-byte reuse buffer but does not alias it", n, cap(buf))
			}
		}
	})
}

// TestReadRequestAllocatesAsBytesArrive: headers that each declare the
// 8 MiB limit and then end cost memory for the bytes that arrived, not for
// the bytes they declared.
func TestReadRequestAllocatesAsBytesArrive(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32([]byte{OpCompress}, maxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, _, err := ReadRequest(bytes.NewReader(hdr), nil); !errors.Is(err, io.EOF) {
			t.Fatalf("header with no body: err %v, want EOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ten bodiless 8 MiB headers allocated %d bytes, want under 1 MiB", got)
	}
}

// TestReadRequestShortBody: a body that ends early is an unexpected EOF
// wherever it ends, step boundaries included. The node treats a plain EOF
// as the peer's clean close.
func TestReadRequestShortBody(t *testing.T) {
	for _, sent := range []int{1, bodyStep - 1, bodyStep, 3 * bodyStep} {
		frame := binary.LittleEndian.AppendUint32([]byte{OpCompress}, maxPayload)
		frame = append(frame, make([]byte, sent)...)
		if _, _, err := ReadRequest(bytes.NewReader(frame), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d of %d body bytes: err %v, want io.ErrUnexpectedEOF", sent, maxPayload, err)
		}
	}
}

// handleBound is how long FuzzHandleOp's node may take to answer an input
// and close the connection.
const handleBound = 10 * time.Second

// FuzzHandleOp sends arbitrary bytes to a real Blockserver (an in-memory
// store, one worker) over loopback TCP, then closes its write side. Every
// complete request frame before the first one over the size limit gets one
// response with a known status and exactly its declared body length, until
// the node closes the connection. The node may close early only by
// cutting a response short, or after a streamed (decompress or range)
// response. It must not panic, must close the connection within
// handleBound, and must leave no goroutine behind once closed. The seed
// corpus is in testdata/fuzz/FuzzHandleOp; regenerate it with
// `go run ./cmd/corpusgen -fuzz-seeds .`.
func FuzzHandleOp(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		base := runtime.NumGoroutine()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b := &Blockserver{Store: store.New(), Shards: 1}
		served := make(chan error, 1)
		go func() { served <- b.Serve(ln) }()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			// The node may close before reading everything; the read side
			// below judges the exchange.
			_, _ = conn.Write(in)
			_ = conn.(*net.TCPConn).CloseWrite()
		}()
		_ = conn.SetReadDeadline(time.Now().Add(handleBound))
		out, rerr := io.ReadAll(conn)
		<-wrote
		_ = conn.Close()
		// A node that closes with request bytes unread resets the
		// connection, and a reset may drop responses not yet read: what
		// arrived is then only a prefix.
		reset := errors.Is(rerr, syscall.ECONNRESET)
		if rerr != nil && !reset {
			t.Fatalf("reading responses: %v", rerr)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := <-served; err != nil {
			t.Fatalf("serve: %v", err)
		}

		// The ops of the complete frames the node must answer.
		var ops []byte
		for rest := in; len(rest) >= 5; {
			n := int64(binary.LittleEndian.Uint32(rest[1:5]))
			if n > maxPayload || int64(len(rest)) < 5+n {
				break
			}
			ops = append(ops, rest[0])
			rest = rest[5+n:]
		}
		var statuses []byte
		cut := false
		for rest := out; len(rest) > 0; {
			if len(rest) < 5 {
				cut = true
				break
			}
			if rest[0] > StatusNotFound {
				t.Fatalf("response %d has unknown status %d", len(statuses), rest[0])
			}
			n := int64(binary.LittleEndian.Uint32(rest[1:5]))
			if int64(len(rest)) < 5+n {
				cut = true
				break
			}
			statuses = append(statuses, rest[0])
			rest = rest[5+n:]
		}
		r := len(statuses)
		switch {
		case r > len(ops):
			t.Fatalf("%d responses to %d requests", r, len(ops))
		case r < len(ops) && !cut && !reset:
			if r == 0 || statuses[r-1] != StatusOK || (ops[r-1] != OpDecompress && ops[r-1] != OpGetRange) {
				t.Fatalf("connection closed after %d responses to %d requests, with no response cut short", r, len(ops))
			}
		}

		deadline := time.Now().Add(handleBound)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after close, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
