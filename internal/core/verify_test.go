package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lepton/internal/jpeg"
)

func TestVerifyCtx(t *testing.T) {
	data := genJPEG(t, 51, 320, 240)
	res, err := encode(data, EncodeOptions{ForceSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	comp := res.Compressed
	payload := []byte("not a JPEG: stored verbatim in a raw container")
	raw, err := (&Container{Mode: ModeRaw, Raw: payload, OutputSize: uint32(len(payload))}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte, i int) []byte {
		b = append([]byte(nil), b...)
		b[i] ^= 0x55
		return b
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name   string
		ctx    context.Context
		comp   []byte
		want   []byte
		detail string // substring of the ReasonRoundtrip detail; "" = must pass
	}{
		{"match", context.Background(), comp, data, ""},
		{"first byte differs", context.Background(), comp, flip(data, 0), "at byte 0 of"},
		{"last byte differs", context.Background(), comp, flip(data, len(data)-1), "differs from input at byte"},
		{"output too short", context.Background(), comp, append(append([]byte(nil), data...), 0), "decode produced"},
		{"output too long", context.Background(), comp, data[:len(data)-1], "longer than"},
		{"truncated container", context.Background(), comp[:len(comp)/2], data, "core:"},
		{"raw match", context.Background(), raw, payload, ""},
		{"raw differs", context.Background(), raw, flip(payload, 3), "at byte 3 of"},
		{"raw too long", context.Background(), raw, payload[:10], "longer than"},
	}
	codec := NewCodec()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := codec.VerifyCtx(tc.ctx, tc.comp, tc.want)
			if tc.detail == "" {
				if err != nil {
					t.Fatalf("VerifyCtx = %v, want nil", err)
				}
				return
			}
			var jerr *jpeg.Error
			if !errors.As(err, &jerr) || jerr.Reason != jpeg.ReasonRoundtrip {
				t.Fatalf("VerifyCtx = %v, want a ReasonRoundtrip *jpeg.Error", err)
			}
			if !strings.Contains(jerr.Detail, tc.detail) {
				t.Fatalf("detail %q does not mention %q", jerr.Detail, tc.detail)
			}
		})
	}

	// Cancellation is the caller's signal, not a codec verdict: it must
	// come back as ctx.Err() even when the bytes would also differ.
	for _, want := range [][]byte{data, flip(data, 0)} {
		err := codec.VerifyCtx(cancelled, comp, want)
		if !errors.Is(err, context.Canceled) || jpeg.ReasonOf(err) == jpeg.ReasonRoundtrip {
			t.Fatalf("cancelled VerifyCtx = %v, want context.Canceled", err)
		}
	}

	// A fresh codec, with empty pools, verifies the same.
	if err := NewCodec().VerifyCtx(context.Background(), comp, data); err != nil {
		t.Fatalf("fresh codec VerifyCtx = %v", err)
	}
}

// TestVerifyCtxDoesNotBufferOutput checks that verification compares in
// stream rather than materializing the reconstruction the way DecodeCtx
// must.
func TestVerifyCtxDoesNotBufferOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	data := genJPEG(t, 52, 640, 480)
	comp, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	codec := NewCodec()
	ctx := context.Background()
	decode := allocBytesPerRun(5, func() {
		if _, err := codec.DecodeCtx(ctx, comp.Compressed); err != nil {
			t.Fatal(err)
		}
	})
	verify := allocBytesPerRun(5, func() {
		if err := codec.VerifyCtx(ctx, comp.Compressed, data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes/op: decode=%.0f verify=%.0f (input %d bytes)", decode, verify, len(data))
	if verify > decode-float64(len(data))/2 {
		t.Fatalf("verify allocates %.0f B/op, decode %.0f B/op: want the %d-byte output buffer saved",
			verify, decode, len(data))
	}
}
