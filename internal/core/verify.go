package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"lepton/internal/jpeg"
)

// errVerifyMismatch stops a verifying decode at the first byte that
// differs from the expected reconstruction.
var errVerifyMismatch = errors.New("core: decode differs from expected bytes")

// VerifyCtx decodes comp and checks that it reconstructs exactly want —
// the §5.7 admission round trip. The decode streams into a comparing
// writer, so the reconstruction is never buffered; the first differing
// byte, or output running past the end of want, stops the decode and
// cancels its segment goroutines. A mismatch, output shorter or longer
// than want, or a decode error comes back as a *jpeg.Error with
// ReasonRoundtrip; cancellation of ctx comes back as ctx.Err().
func (cd *Codec) VerifyCtx(ctx context.Context, comp, want []byte) error {
	vctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cw := compareWriter{want: want, stop: cancel}
	err := cd.DecodeToCtx(vctx, &cw, comp)
	if err == nil && cw.pos == len(want) {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var detail string
	switch {
	case cw.bad && cw.diff < len(want):
		detail = fmt.Sprintf("decode differs from input at byte %d of %d", cw.diff, len(want))
	case cw.bad:
		detail = fmt.Sprintf("decode is longer than the %d-byte input", len(want))
	case err != nil:
		detail = err.Error()
	default:
		detail = fmt.Sprintf("decode produced %d of %d input bytes", cw.pos, len(want))
	}
	return &jpeg.Error{Reason: jpeg.ReasonRoundtrip, Detail: detail}
}

// compareWriter checks each write against the next bytes of want. On the
// first difference it records the offset in diff, calls stop, and fails
// the write (and every later one).
type compareWriter struct {
	want []byte
	pos  int
	bad  bool
	diff int // offset of the first difference; len(want) when the output ran long
	stop func()
}

func (w *compareWriter) Write(p []byte) (int, error) {
	if w.bad {
		return 0, errVerifyMismatch
	}
	rest := w.want[w.pos:]
	n := len(p)
	if n > len(rest) {
		n = len(rest)
	}
	if !bytes.Equal(p[:n], rest[:n]) || n < len(p) {
		i := 0
		for i < n && p[i] == rest[i] {
			i++
		}
		w.diff, w.bad = w.pos+i, true
		w.stop()
		return i, errVerifyMismatch
	}
	w.pos += n
	return n, nil
}
