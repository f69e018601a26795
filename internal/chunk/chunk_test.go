package chunk_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lepton/internal/chunk"
	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// compress and compressFrom run the chunk entry points under
// context.Background(); reassemble and decompress decode on a fresh codec.
func compress(data []byte, opt chunk.Options) ([][]byte, error) {
	return chunk.CompressCtx(context.Background(), data, opt)
}

func compressFrom(r io.Reader, opt chunk.Options, emit func([]byte) error) error {
	return chunk.CompressFromCtx(context.Background(), r, opt, emit)
}

func reassemble(chunks [][]byte) ([]byte, error) {
	return chunk.ReassembleCtx(context.Background(), core.NewCodec(), chunks)
}

func decompress(cb []byte) ([]byte, error) {
	return core.NewCodec().DecodeCtx(context.Background(), cb)
}

func gen(t testing.TB, seed int64, w, h int) []byte {
	t.Helper()
	data, err := imagegen.Generate(seed, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testChunked(t *testing.T, data []byte, chunkSize int) [][]byte {
	t.Helper()
	chunks, err := compress(data, chunk.Options{ChunkSize: chunkSize, Codec: core.NewCodec()})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	wantChunks := (len(data) + chunkSize - 1) / chunkSize
	if len(chunks) != wantChunks {
		t.Fatalf("%d chunks, want %d", len(chunks), wantChunks)
	}
	back, err := reassemble(chunks)
	if err != nil {
		t.Fatalf("Reassemble: %v", err)
	}
	if !bytes.Equal(back, data) {
		i := 0
		for i < len(back) && i < len(data) && back[i] == data[i] {
			i++
		}
		t.Fatalf("reassembly differs at byte %d (lens %d vs %d)", i, len(back), len(data))
	}
	return chunks
}

func TestChunkedRoundTrip(t *testing.T) {
	data := gen(t, 1, 512, 384)
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, len(data) + 100} {
		testChunked(t, data, size)
	}
}

func TestChunkIndependence(t *testing.T) {
	// Decompress chunks in random order, one at a time, and verify each
	// against its slice of the original — no shared state allowed.
	data := gen(t, 2, 640, 480)
	size := 8 << 10
	chunks := testChunked(t, data, size)
	order := rand.New(rand.NewSource(3)).Perm(len(chunks))
	for _, k := range order {
		b, err := decompress(chunks[k])
		if err != nil {
			t.Fatalf("chunk %d: %v", k, err)
		}
		o0 := k * size
		o1 := o0 + size
		if o1 > len(data) {
			o1 = len(data)
		}
		if !bytes.Equal(b, data[o0:o1]) {
			t.Fatalf("chunk %d content mismatch", k)
		}
	}
}

func TestChunkedNonJPEG(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 50<<10)
	rng.Read(data)
	chunks, err := compress(data, chunk.Options{ChunkSize: 16 << 10, Codec: core.NewCodec()})
	if err != nil {
		t.Fatal(err)
	}
	back, err := reassemble(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("raw chunk mismatch")
	}
}

func TestChunkedCompressible(t *testing.T) {
	data := gen(t, 5, 512, 512)
	chunks := testChunked(t, data, 8<<10)
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	if total >= len(data) {
		t.Fatalf("chunked compression expanded: %d >= %d", total, len(data))
	}
	t.Logf("chunked savings: %.1f%% over %d chunks",
		100*(1-float64(total)/float64(len(data))), len(chunks))
}

func TestChunkedWithRestartsAndTrailer(t *testing.T) {
	img := imagegen.Synthesize(6, 400, 300)
	junk := make([]byte, 3000)
	rand.New(rand.NewSource(7)).Read(junk)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{
		Quality: 88, SubsampleChroma: true, RestartInterval: 3, PadBit: 0,
		TrailerGarbage: junk,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2 << 10, 7 << 10, 31 << 10} {
		testChunked(t, data, size)
	}
}

func TestChunkedTinyChunks(t *testing.T) {
	// Chunks far smaller than an MCU row: most become verbatim, round trip
	// must still hold.
	data := gen(t, 8, 256, 192)
	testChunked(t, data, 512)
}

func TestChunkedVerifyOption(t *testing.T) {
	data := gen(t, 9, 300, 200)
	if _, err := compress(data, chunk.Options{ChunkSize: 8 << 10, VerifyRoundtrip: true, Codec: core.NewCodec()}); err != nil {
		t.Fatalf("verified chunk compress failed: %v", err)
	}
}

func TestChunkHeaderOnlyFirstChunk(t *testing.T) {
	// Chunk size smaller than the JPEG header: chunk 0 must fall back to
	// verbatim and everything still reassembles.
	data := gen(t, 10, 128, 96)
	testChunked(t, data, 300)
}

func TestChunksAreLeptonContainers(t *testing.T) {
	data := gen(t, 11, 256, 256)
	chunks := testChunked(t, data, 8<<10)
	for i, c := range chunks {
		if !core.IsLepton(c) {
			t.Fatalf("chunk %d is not a Lepton container", i)
		}
	}
}

func TestChunkGrayscale(t *testing.T) {
	img := imagegen.Synthesize(12, 320, 240)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 80, Grayscale: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	testChunked(t, data, 6<<10)
}

func TestChunkQuickRandomSizes(t *testing.T) {
	// Property: for any chunk size, compress+reassemble is the identity and
	// every chunk decodes independently to its exact slice.
	data := gen(t, 40, 360, 270)
	f := func(rawSize uint16) bool {
		size := int(rawSize)%20000 + 700
		chunks, err := compress(data, chunk.Options{ChunkSize: size, Codec: core.NewCodec()})
		if err != nil {
			return false
		}
		for k, cb := range chunks {
			part, err := decompress(cb)
			if err != nil {
				return false
			}
			o0 := k * size
			o1 := o0 + size
			if o1 > len(data) {
				o1 = len(data)
			}
			if !bytes.Equal(part, data[o0:o1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressFromMatchesCompress checks the streaming entry point produces
// byte-identical chunks to the in-memory path for a stream that fits the
// buffer limit, both on a fresh codec and on the warm codec that produced
// the reference.
func TestCompressFromMatchesCompress(t *testing.T) {
	data := gen(t, 61, 512, 384)
	shared := core.NewCodec()
	opt := chunk.Options{ChunkSize: 32 << 10, Codec: shared}
	want, err := compress(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []*core.Codec{core.NewCodec(), shared} {
		o := opt
		o.Codec = codec
		var got [][]byte
		err = compressFrom(bytes.NewReader(data), o, func(c []byte) error {
			got = append(got, append([]byte(nil), c...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk count %d != %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("chunk %d differs between CompressFromCtx and CompressCtx", i)
			}
		}
	}
}

// TestCompressFromOverBudgetStreamsRaw feeds a stream larger than the buffer
// limit: it must be chunked incrementally in raw mode and still reassemble
// exactly.
func TestCompressFromOverBudgetStreamsRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 300<<10)
	rng.Read(data)
	opt := chunk.Options{ChunkSize: 32 << 10, BufferLimit: 64 << 10, Codec: core.NewCodec()}
	var chunks [][]byte
	err := compressFrom(bytes.NewReader(data), opt, func(c []byte) error {
		chunks = append(chunks, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(data) + (32 << 10) - 1) / (32 << 10); len(chunks) != want {
		t.Fatalf("chunk count %d, want %d", len(chunks), want)
	}
	back, err := reassemble(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("over-budget stream did not reassemble")
	}
}

// TestCompressWithSharedCodec runs the chunk path repeatedly through one
// codec and cross-checks outputs against a fresh codec's.
func TestCompressWithSharedCodec(t *testing.T) {
	codec := core.NewCodec()
	for seed := int64(71); seed < 74; seed++ {
		data := gen(t, seed, 320, 240)
		want, err := compress(data, chunk.Options{ChunkSize: 16 << 10, Codec: core.NewCodec()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := compress(data, chunk.Options{ChunkSize: 16 << 10, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("seed %d chunk %d: pooled chunk differs", seed, i)
			}
		}
		back, err := reassemble(got)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("seed %d: reassembly failed (%v)", seed, err)
		}
	}
}

// TestSegmentsPerChunkOutOfRangeRefused checks that a forced per-chunk
// segment count the decoder would refuse fails both entry points before
// any chunk is written.
func TestSegmentsPerChunkOutOfRangeRefused(t *testing.T) {
	data := gen(t, 5, 64, 64)
	for _, n := range []int{-1, core.MaxSegments + 1} {
		opt := chunk.Options{SegmentsPerChunk: n, Codec: core.NewCodec()}
		if _, err := compress(data, opt); err == nil {
			t.Errorf("CompressCtx with SegmentsPerChunk %d succeeded", n)
		}
		emitted := 0
		err := compressFrom(bytes.NewReader(data), opt, func([]byte) error { emitted++; return nil })
		if err == nil || emitted != 0 {
			t.Errorf("CompressFromCtx with SegmentsPerChunk %d: err %v after %d chunks", n, err, emitted)
		}
	}
}

// TestRangeReadDecodesAFractionOfTheChunk pins what a 4 KiB read of a
// large chunk costs: the chunk gets one thread segment per 128 KiB, so no
// read decodes more than a sixteenth of the chunk's block rows plus the
// MCU row it spills into the next segment. With eight segments per chunk
// a read could decode an eighth.
func TestRangeReadDecodesAFractionOfTheChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megabyte chunk")
	}
	img := imagegen.Synthesize(11, 2560, 1920)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 100, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2<<20 || len(data) > chunk.DefaultChunkSize {
		t.Fatalf("test image is %d bytes, want one chunk of at least 2 MiB", len(data))
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	var blockRows, group int64
	for _, c := range f.Components {
		blockRows += int64(c.BlocksHigh)
		group += int64(c.V)
	}
	chunks, err := compress(data, chunk.Options{Codec: core.NewCodec()})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Fatalf("%d chunks, want 1", len(chunks))
	}
	stats := core.NewStatsSet()
	codec := core.NewCodecIn(stats)
	bound := blockRows/16 + group
	var most int64
	for j := 0; j < 16; j++ {
		off := int64(len(data)) * int64(2*j+1) / 32
		before := stats.Snapshot()["range_block_rows"]
		got, err := codec.DecodeRangeCtx(context.Background(), chunks[0], off, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[off:min(off+4096, int64(len(data)))]) {
			t.Fatalf("read at %d differs from the input", off)
		}
		most = max(most, stats.Snapshot()["range_block_rows"]-before)
	}
	if most > bound {
		t.Fatalf("a 4 KiB read decoded %d block rows, more than %d (1/16 of %d plus one MCU row)",
			most, bound, blockRows)
	}
	t.Logf("most block rows per 4 KiB read: %d of %d (bound %d)", most, blockRows, bound)
}

// TestCompressAbortsWithSegmentsWaiting aborts chunked puts whose one
// encode has 64 thread segments, most of them waiting for a live slot:
// cancellations at a spread of delays must return DeadlineExceeded or the
// exact chunks, and a scan corrupted halfway must come back as raw chunks,
// not an error, both when the row-position pass finds the corruption
// (several chunks) and when the encode does (one chunk). Every abort must
// settle the coefficient gauge and leave the codec producing byte-identical
// chunks.
func TestCompressAbortsWithSegmentsWaiting(t *testing.T) {
	data := gen(t, 41, 960, 1536)
	opt := chunk.Options{ChunkSize: len(data)/2 + 1, SegmentsPerChunk: 32, Codec: core.NewCodec()}
	want, err := compress(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("%d chunks, want 2", len(want))
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	mid := len(f.Header) + len(f.ScanData)/2
	for i := mid; i < mid+64; i++ {
		bad[i] = 0xFF
	}
	stats := core.NewStatsSet()
	opt.Codec = core.NewCodecIn(stats)
	settled := func(what string) {
		t.Helper()
		if inUse := stats.Snapshot()["coeff_window_bytes_in_use"]; inUse != 0 {
			t.Fatalf("%s: %d coefficient bytes still in use", what, inUse)
		}
	}
	for _, size := range []int{opt.ChunkSize, chunk.DefaultChunkSize} {
		o := opt
		o.ChunkSize = size
		chunks, err := compress(bad, o)
		if err != nil {
			t.Fatalf("corrupt scan, %d-byte chunks: %v", size, err)
		}
		for i, cb := range chunks {
			if c, err := core.Unmarshal(cb); err != nil || c.Mode != core.ModeRaw {
				t.Fatalf("corrupt scan, %d-byte chunks: chunk %d is not raw (%v)", size, i, err)
			}
		}
		if back, err := reassemble(chunks); err != nil || !bytes.Equal(back, bad) {
			t.Fatalf("corrupt scan, %d-byte chunks: raw chunks do not reassemble (%v)", size, err)
		}
		settled("corrupt scan")
	}
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		got, err := chunk.CompressCtx(ctx, data, opt)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline %v: err = %v", d, err)
		}
		if err == nil && !equalChunks(got, want) {
			t.Fatalf("deadline %v: chunks differ", d)
		}
		settled("cancelled CompressCtx")
	}
	got, err := compress(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalChunks(got, want) {
		t.Fatal("chunks changed after aborted puts: pools poisoned")
	}
}

func equalChunks(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
