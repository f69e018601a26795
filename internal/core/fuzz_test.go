package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lepton/internal/bitio"
	"lepton/internal/huffman"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// fuzzSeedJPEGs returns small baseline JPEGs across color layouts and
// restart intervals: 4:4:4, grayscale, 4:2:0, and 4:2:0 with restarts.
func fuzzSeedJPEGs(tb testing.TB) [][]byte {
	tb.Helper()
	sy := imagegen.Synthesize(3, 120, 88)
	var out [][]byte
	for _, opt := range []imagegen.Options{
		{Quality: 85, PadBit: 1},
		{Quality: 85, Grayscale: true, PadBit: 1},
		{Quality: 80, SubsampleChroma: true, PadBit: 1},
		{Quality: 75, SubsampleChroma: true, RestartInterval: 3, PadBit: 0},
	} {
		img, err := imagegen.EncodeJPEG(sy, opt)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, img)
	}
	return out
}

// fuzzSeedContainers builds a spread of valid containers — whole-file
// baseline variants of fuzzSeedJPEGs, a 64-segment container (one segment
// per MCU row, so decodes run the in-order launcher well past eight live
// units), a raw container, and the crafted progressive containers whose
// scan records break the scan rules — whose mutations give the fuzzer a
// head start on the container grammar.
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
	for _, img := range fuzzSeedJPEGs(f) {
		with(EncodeOptions{})(img, nil)
	}
	tall := imagegen.Synthesize(5, 24, 8*MaxSegments)
	with(EncodeOptions{ForceSegments: MaxSegments})(imagegen.EncodeJPEG(tall, imagegen.Options{Quality: 80, Grayscale: true, PadBit: 1}))
	raw := &Container{Mode: ModeRaw, Raw: []byte("not a jpeg"), OutputSize: 10}
	rb, err := raw.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	out = append(out, rb)
	for _, c := range craftedProgressive(f) {
		out = append(out, c.comp)
	}
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
		got, err := cd.DecodeCtx(ctx, data)
		var buf bytes.Buffer
		err2 := cd.DecodeToCtx(ctx, &buf, data)
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
		if verr := cd.VerifyCtx(ctx, data, buf.Bytes()); (verr == nil) != (err == nil) {
			t.Fatalf("Decode err=%v but VerifyCtx err=%v", err, verr)
		}
		if err == nil && len(got) > 0 {
			bad := append([]byte(nil), got...)
			bad[len(bad)/2] ^= 1
			if cd.VerifyCtx(ctx, data, bad) == nil {
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
		full, ferr := cd.DecodeCtx(context.Background(), data)
		got, rerr := cd.DecodeRangeCtx(context.Background(), data, off, n)
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
		_ = decodeTo(w, data)
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

// acTableSymbols returns the offset and count of the symbols of luma AC
// Huffman table 0 in a baseline JPEG's DHT segments.
func acTableSymbols(tb testing.TB, data []byte) (off, n int) {
	tb.Helper()
	for pos := 2; pos+4 <= len(data) && data[pos] == 0xFF; {
		marker, l := data[pos+1], int(data[pos+2])<<8|int(data[pos+3])
		if marker == 0xC4 {
			for t := pos + 4; t < pos+2+l; {
				total := 0
				for _, c := range data[t+1 : t+17] {
					total += int(c)
				}
				if data[t] == 0x10 {
					return t + 17, total
				}
				t += 17 + total
			}
		}
		if marker == 0xDA {
			break
		}
		pos += 2 + l
	}
	tb.Fatal("no AC table 0")
	return 0, 0
}

// nonCanonicalJPEG is a baseline JPEG whose Huffman coding decodes to
// coefficients the re-encoder would write back differently, with the
// reason compression must refuse it for.
type nonCanonicalJPEG struct {
	name   string
	data   []byte
	reason jpeg.Reason
}

// nonCanonicalJPEGs returns one nonCanonicalJPEG per class of coding.
func nonCanonicalJPEGs(tb testing.TB) []nonCanonicalJPEG {
	tb.Helper()
	base, err := imagegen.EncodeJPEG(imagegen.Synthesize(6, 64, 48), imagegen.Options{Quality: 85, PadBit: 1})
	if err != nil {
		tb.Fatal(err)
	}
	off, n := acTableSymbols(tb, base)

	// EOB renamed from 0x00 to 0x10, a size-0 symbol with a run of one.
	eob := append([]byte(nil), base...)
	i := bytes.IndexByte(eob[off:off+n], 0x00)
	if i < 0 || bytes.IndexByte(eob[off:off+n], 0x10) >= 0 {
		tb.Fatal("AC table 0 is not the standard table")
	}
	eob[off+i] = 0x10

	// The last symbol overwritten by the first: symbol 0x01 gets two codes.
	dup := append([]byte(nil), base...)
	dup[off+n-1] = dup[off]

	// One 8x8 gray block, DC 0, with AC coded through ZRLs that no
	// coefficient follows. The canonical coding ends the block with EOB
	// right after the last nonzero coefficient.
	gray, err := imagegen.EncodeJPEG(imagegen.Synthesize(1, 8, 8), imagegen.Options{Quality: 85, Grayscale: true, PadBit: 1})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := jpeg.Parse(gray, 0)
	if err != nil {
		tb.Fatal(err)
	}
	block := func(acSyms ...byte) []byte {
		w := bitio.NewWriter()
		dc, _ := huffman.NewEncoder(&huffman.StdDCLuminance)
		ac, _ := huffman.NewEncoder(&huffman.StdACLuminance)
		if err := dc.Encode(w, 0x00); err != nil {
			tb.Fatal(err)
		}
		for _, sym := range acSyms {
			if err := ac.Encode(w, sym); err != nil {
				tb.Fatal(err)
			}
			if sym&15 != 0 {
				w.WriteBits(1, sym&15) // a positive value of that size
			}
		}
		w.AlignPad(1)
		return append(append(append([]byte(nil), f.Header...), w.Bytes()...), 0xFF, 0xD9)
	}

	return []nonCanonicalJPEG{
		{"eob-renamed", eob, jpeg.ReasonUnsupported},
		{"duplicate-symbol", dup, jpeg.ReasonUnsupported},
		{"zrl-then-eob", block(0xF0, 0x00), jpeg.ReasonRoundtrip},
		// A 1 at zigzag 15, then three ZRLs to the block's end.
		{"zrl-to-block-end", block(0xE1, 0xF0, 0xF0, 0xF0), jpeg.ReasonRoundtrip},
	}
}

// TestNonCanonicalHuffmanRefused: with default options compression does not
// verify, so a scan whose coding the re-encoder cannot reproduce must be
// refused while it is parsed, or the container would decode to other
// bytes than the input.
func TestNonCanonicalHuffmanRefused(t *testing.T) {
	for _, tc := range nonCanonicalJPEGs(t) {
		t.Run(tc.name, func(t *testing.T) {
			res, err := NewCodec().EncodeCtx(context.Background(), tc.data, EncodeOptions{})
			if err == nil {
				back, derr := decode(res.Compressed)
				t.Fatalf("compressed; decodes back to the input: %v (decode err %v)", bytes.Equal(back, tc.data), derr)
			}
			if jpeg.ReasonOf(err) != tc.reason {
				t.Fatalf("reason = %v (%v), want %v", jpeg.ReasonOf(err), err, tc.reason)
			}
		})
	}
}

// FuzzCompress feeds arbitrary bytes to the encoder with default options,
// the unverified path a caller of Compress takes. Invariants: never
// panic; either refuse the input with a typed Reason, or return a
// container that decodes to exactly the input. The checked-in corpus
// (testdata/fuzz/FuzzCompress) holds the nonCanonicalJPEGs.
func FuzzCompress(f *testing.F) {
	for _, img := range fuzzSeedJPEGs(f) {
		f.Add(img)
		f.Add(imagegen.MakeProgressive(img))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cd := NewCodec()
		ctx := context.Background()
		res, err := cd.EncodeCtx(ctx, data, EncodeOptions{})
		if err != nil {
			var je *jpeg.Error
			if !errors.As(err, &je) {
				t.Fatalf("refusal without a typed Reason: %v", err)
			}
			return
		}
		back, err := cd.DecodeCtx(ctx, res.Compressed)
		if err != nil {
			t.Fatalf("compressed container does not decode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("container decodes to %d bytes that differ from the %d-byte input (first diff %d)",
				len(back), len(data), firstDiffAt(back, data))
		}
	})
}

func firstDiffAt(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
