package lepton_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"lepton"
	"lepton/internal/imagegen"
)

// TestDecompressRejectsNonLepton covers the ErrNotLepton contract: every
// decompress entry point rejects a payload without the Lepton magic with an
// errors.Is-able ErrNotLepton, before any parsing.
func TestDecompressRejectsNonLepton(t *testing.T) {
	junk := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("definitely not a lepton container"),
		{0xFF, 0xD8, 0xFF, 0xE0}, // a JPEG, not a Lepton container
	}
	codec := lepton.NewCodec()
	ctx := context.Background()
	entries := []struct {
		name string
		call func(payload []byte) error
	}{
		{"Decompress", func(p []byte) error { _, err := lepton.Decompress(p); return err }},
		{"Codec.DecompressCtx", func(p []byte) error { _, err := codec.DecompressCtx(ctx, p); return err }},
		{"Codec.DecompressToCtx", func(p []byte) error { return codec.DecompressToCtx(ctx, io.Discard, p) }},
		{"Codec.DecompressRangeCtx", func(p []byte) error { _, err := codec.DecompressRangeCtx(ctx, p, 0, 16); return err }},
		{"Codec.ReassembleChunksCtx", func(p []byte) error { _, err := codec.ReassembleChunksCtx(ctx, [][]byte{p}); return err }},
		{"RangeLength", func(p []byte) error { _, err := lepton.RangeLength(p, 0, 16); return err }},
	}
	for _, payload := range junk {
		for _, e := range entries {
			if err := e.call(payload); !errors.Is(err, lepton.ErrNotLepton) {
				t.Errorf("%s(%q): err = %v, want ErrNotLepton", e.name, payload, err)
			}
		}
	}

	// A genuine container must not trip the check.
	data, err := imagegen.Generate(1, 128, 96)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lepton.Decompress(res.Compressed)
	if err != nil {
		t.Fatalf("Decompress of valid container: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestCompressCtxPreCancelled(t *testing.T) {
	data, err := imagegen.Generate(2, 256, 192)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	codec := lepton.NewCodec()
	if _, err := codec.CompressCtx(ctx, data, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompressCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := codec.CompressCtx(ctx2, data, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CompressCtx on expired ctx: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCompressCtxCancelMidEncode is the acceptance test for the tentpole:
// cancelling CompressCtx on a large multi-segment file aborts promptly at a
// segment checkpoint with context.Canceled, and the codec's pools are not
// poisoned — the same codec afterwards produces output byte-identical to a
// fresh one-shot encode.
func TestCompressCtxCancelMidEncode(t *testing.T) {
	data, err := imagegen.Generate(5, 2048, 1536)
	if err != nil {
		t.Fatal(err)
	}

	// Reference output from a fresh one-shot encode.
	want, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Threads < 2 {
		t.Fatalf("want a multi-segment file, got %d segments", want.Threads)
	}

	codec := lepton.NewCodec()
	// Baseline on this codec: warms the pools and calibrates the timing
	// bound against this machine (and the race detector's slowdown).
	start := time.Now()
	res, err := codec.CompressCtx(context.Background(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)
	if !bytes.Equal(res.Compressed, want.Compressed) {
		t.Fatal("pooled codec output differs from one-shot before any cancellation")
	}

	// Cancel early in the encode. If scheduling ever lets a full encode win
	// the race against the cancel, retry with a shorter delay.
	delay := baseline / 20
	cancelled := false
	for attempt := 0; attempt < 5 && !cancelled; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		start := time.Now()
		_, err := codec.CompressCtx(ctx, data, nil)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if err == nil {
			delay /= 2 // encode outran the cancel; try cancelling sooner
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled CompressCtx: err = %v, want context.Canceled", err)
		}
		cancelled = true
		// The abort must happen at a row checkpoint soon after the cancel,
		// not after a full encode. Allow generous scheduling slack.
		if elapsed > delay+baseline/2 {
			t.Errorf("cancelled CompressCtx took %v (cancel at %v, full encode %v); checkpoints not honored",
				elapsed, delay, baseline)
		}
	}
	if !cancelled {
		t.Fatal("could not cancel mid-encode in 5 attempts")
	}

	// Pool non-poisoning: the interrupted codec must still produce
	// byte-identical output.
	for i := 0; i < 2; i++ {
		res, err := codec.CompressCtx(context.Background(), data, nil)
		if err != nil {
			t.Fatalf("compress after cancellation: %v", err)
		}
		if !bytes.Equal(res.Compressed, want.Compressed) {
			t.Fatal("codec output changed after a cancelled conversion: pools poisoned")
		}
	}
}

// TestDecompressCtxCancelMidDecode mirrors the encode test on the decode
// side.
func TestDecompressCtxCancelMidDecode(t *testing.T) {
	data, err := imagegen.Generate(6, 2048, 1536)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}

	codec := lepton.NewCodec()
	start := time.Now()
	back, err := codec.DecompressCtx(context.Background(), res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
	}

	delay := baseline / 20
	cancelled := false
	for attempt := 0; attempt < 5 && !cancelled; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		_, err := codec.DecompressCtx(ctx, res.Compressed)
		timer.Stop()
		cancel()
		if err == nil {
			delay /= 2
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled DecompressCtx: err = %v, want context.Canceled", err)
		}
		cancelled = true
	}
	if !cancelled {
		t.Fatal("could not cancel mid-decode in 5 attempts")
	}

	back, err = codec.DecompressCtx(context.Background(), res.Compressed)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("decode after cancellation broken: %v", err)
	}
}

// TestCompressChunksFromCtxCancelled covers the streaming chunk path: a
// cancelled context stops emission with ctx.Err().
func TestCompressChunksFromCtxCancelled(t *testing.T) {
	data, err := imagegen.Generate(7, 1280, 960)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	err = lepton.NewCodec().CompressChunksFromCtx(ctx, bytes.NewReader(data),
		&lepton.ChunkOptions{ChunkSize: 32 << 10},
		func(chunk []byte) error { n++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("emitted %d chunks under a cancelled ctx", n)
	}
}
