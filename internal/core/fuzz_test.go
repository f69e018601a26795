package core

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lepton/internal/imagegen"
)

// fuzzSeedContainers builds a spread of valid containers — whole-file
// baseline variants across color layouts and restart intervals, a
// 64-segment container (one segment per MCU row, so decodes run the
// in-order launcher well past eight live units), plus a raw container —
// whose mutations give the fuzzer a head start on the container grammar.
func fuzzSeedContainers(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	// with returns a function that encodes one seed image with opt.
	with := func(opt EncodeOptions) func([]byte, error) {
		return func(img []byte, err error) {
			if err != nil {
				f.Fatal(err)
			}
			res, err := encode(img, opt)
			if err != nil {
				f.Fatal(err)
			}
			if opt.ForceSegments != 0 && res.Segments != opt.ForceSegments {
				f.Fatalf("%d segments, want %d", res.Segments, opt.ForceSegments)
			}
			out = append(out, res.Compressed)
		}
	}
	add := with(EncodeOptions{})
	sy := imagegen.Synthesize(3, 120, 88)
	add(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 85, PadBit: 1}))
	add(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 85, Grayscale: true, PadBit: 1}))
	add(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 75, SubsampleChroma: true, RestartInterval: 3, PadBit: 0}))
	tall := imagegen.Synthesize(5, 24, 8*MaxSegments)
	with(EncodeOptions{ForceSegments: MaxSegments})(imagegen.EncodeJPEG(tall, imagegen.Options{Quality: 80, Grayscale: true, PadBit: 1}))
	raw := &Container{Mode: ModeRaw, Raw: []byte("not a jpeg"), OutputSize: 10}
	rb, err := raw.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	out = append(out, rb)
	return out
}

// planarFixtureSeeds returns the checked-in containers the encoder no
// longer writes (version 0x01 planar segments, with and without a seek
// index), so fuzzing keeps exercising the planar decode path.
func planarFixtureSeeds(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, pat := range []string{"v1-*.lep", "legacy-*.lep"} {
		paths, err := filepath.Glob(fixturePath(pat))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no %s fixtures: %v", pat, err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// FuzzDecode feeds arbitrary bytes to the container parser and streaming
// decoder. The invariants: never panic, never hang, fail cleanly on
// corrupt segments (the row-window decoder must not over-read a window),
// and — when a container does decode — the buffered and streamed decode
// paths must agree byte for byte, and VerifyCtx must accept exactly the
// decoded bytes.
func FuzzDecode(f *testing.F) {
	seeds := fuzzSeedContainers(f)
	for _, s := range seeds {
		f.Add(s)
		// Corrupt-segment variants: flip a byte inside the arithmetic
		// streams and truncate mid-body.
		if len(s) > 64 {
			c := append([]byte(nil), s...)
			c[len(c)-17] ^= 0x5A
			f.Add(c)
			f.Add(s[:3*len(s)/4])
		}
	}
	for _, s := range planarFixtureSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cd := NewCodec()
		ctx := context.Background()
		got, err := cd.DecodeCtx(ctx, data, 0)
		var buf bytes.Buffer
		err2 := cd.DecodeToCtx(ctx, &buf, data, 0)
		if (err == nil) != (err2 == nil) {
			// DecodeTo may have written a partial prefix before failing;
			// both paths must still agree on success vs failure.
			t.Fatalf("Decode err=%v but DecodeTo err=%v", err, err2)
		}
		if err == nil && !bytes.Equal(got, buf.Bytes()) {
			t.Fatal("Decode and DecodeTo disagree on reconstructed bytes")
		}
		// A failed decode verifies against nothing, not even the prefix it
		// wrote; a successful one verifies against its output and against
		// no one-byte change of it.
		if verr := cd.VerifyCtx(ctx, data, buf.Bytes(), 0); (verr == nil) != (err == nil) {
			t.Fatalf("Decode err=%v but VerifyCtx err=%v", err, verr)
		}
		if err == nil && len(got) > 0 {
			bad := append([]byte(nil), got...)
			bad[len(bad)/2] ^= 1
			if cd.VerifyCtx(ctx, data, bad, 0) == nil {
				t.Fatal("VerifyCtx accepted a changed byte")
			}
		}
		if inUse, _ := coeffMem(cd); inUse != 0 {
			t.Fatalf("decode leaked %d coefficient bytes", inUse)
		}
	})
}

// FuzzDecompressRange feeds arbitrary container bytes and range bounds to
// the range decoder. Invariants: never panic or hang; whenever the full
// decode succeeds and the bounds are non-negative, the range decode must
// succeed and return exactly the matching slice of the full output
// (whether it took the indexed fast path or the fallback); coefficient
// memory must always drain.
func FuzzDecompressRange(f *testing.F) {
	seeds := fuzzSeedContainers(f)
	for i, s := range seeds {
		f.Add(s, int64(0), int64(1024))
		f.Add(s, int64(31*i+7), int64(257))
		if len(s) > 64 {
			// Flip a byte near the tail — usually inside the seek index,
			// exercising the corrupt-index fallback — and truncate.
			c := append([]byte(nil), s...)
			c[len(c)-9] ^= 0x11
			f.Add(c, int64(64), int64(512))
			f.Add(s[:7*len(s)/8], int64(0), int64(1<<20))
		}
	}
	for i, s := range planarFixtureSeeds(f) {
		f.Add(s, int64(1024*(i+1)), int64(4096))
	}
	bound, off := cpuBoundContainer(f)
	f.Add(bound, off, int64(1))
	f.Fuzz(func(t *testing.T, data []byte, off, n int64) {
		cd := NewCodec()
		full, ferr := cd.DecodeCtx(context.Background(), data, 0)
		got, rerr := cd.DecodeRangeCtx(context.Background(), data, off, n, 0)
		if ferr == nil && off >= 0 && n >= 0 {
			if rerr != nil {
				t.Fatalf("full decode ok but decodeRange(off=%d n=%d): %v", off, n, rerr)
			}
			size := int64(len(full))
			a, z := off, off+n
			if a > size {
				a = size
			}
			if z > size || z < 0 {
				z = size
			}
			if z < a {
				z = a
			}
			if !bytes.Equal(got, full[a:z]) {
				t.Fatalf("decodeRange(off=%d n=%d) differs from full-decode slice", off, n)
			}
		}
		if inUse, _ := coeffMem(cd); inUse != 0 {
			t.Fatalf("range decode leaked %d coefficient bytes", inUse)
		}
	})
}

// FuzzDecodeToWriterErrors decodes a valid container into a writer that
// fails partway: the pipeline must return the write error without panic or
// goroutine leak.
func FuzzDecodeToWriterErrors(f *testing.F) {
	seeds := fuzzSeedContainers(f)
	for _, s := range seeds {
		f.Add(s, 10)
	}
	f.Fuzz(func(t *testing.T, data []byte, failAt int) {
		w := &failingWriter{failAt: failAt}
		_ = decodeTo(w, data, 0)
	})
}

type failingWriter struct {
	n      int
	failAt int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.failAt >= 0 && w.n > w.failAt {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}
