package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
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
