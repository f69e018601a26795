package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// coeffMem returns cd's coefficient-window gauge: bytes in use and peak.
func coeffMem(cd *Codec) (inUse, peak int64) {
	s := cd.stats.Snapshot()
	return s[coeffWindow+"_in_use"], s[coeffWindow+"_peak"]
}

// bigSynthetic returns a 4:4:4 JPEG whose whole coefficient planes exceed
// the 24 MiB decode budget — the class of file the pre-streaming engine
// rejected up front (cmd/corpusgen generates the same shape at the command
// line for ad-hoc runs).
func bigSynthetic(t testing.TB) []byte {
	t.Helper()
	img := imagegen.Synthesize(5, 2600, 2000)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOverBudgetImageStreams is the regression test for the row-window
// refactor's headline: an image whose coefficient planes exceed the 24 MiB
// decode budget now streams through both directions instead of being
// rejected with a memory exit.
func TestOverBudgetImageStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megapixel conversion")
	}
	data := bigSynthetic(t)
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if planeBytes := int64(f.CoefficientCount()) * 2; planeBytes <= MemDecodeBudget {
		t.Fatalf("test image too small to exercise the old wall: planes %d <= budget %d",
			planeBytes, MemDecodeBudget)
	}
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatalf("over-plane-budget image no longer encodes: %v", err)
	}
	back, err := decode(res.Compressed)
	if err != nil {
		t.Fatalf("over-plane-budget image no longer decodes: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("streamed round trip differs from input")
	}
}

// liveWindowBound is the most coefficient bytes a decode of f with the
// given segment count may hold: one row window per live segment, and at
// most eight segments live at once (§5.1's eight threads).
func liveWindowBound(f *jpeg.File, segments int) int64 {
	return DecodeWindowBytes(f, 1) * int64(min(segments, 8))
}

// TestDecodePeakCoeffBytesUnderWindowBound asserts the streaming decoder's
// peak coefficient memory stays within the advertised row-window bound —
// the §5.1 ceiling made checkable.
func TestDecodePeakCoeffBytesUnderWindowBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megapixel conversion")
	}
	data := bigSynthetic(t)
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := liveWindowBound(f, res.Segments)
	cd := NewCodec()
	if _, err := cd.DecodeCtx(context.Background(), res.Compressed); err != nil {
		t.Fatal(err)
	}
	inUse, peak := coeffMem(cd)
	if inUse != 0 {
		t.Fatalf("coefficient accounting leaked: %d bytes still in use", inUse)
	}
	if peak > bound {
		t.Fatalf("decode peak coefficient bytes %d exceed window bound %d", peak, bound)
	}
	planeBytes := int64(f.CoefficientCount()) * 2
	if peak*5 > planeBytes {
		t.Fatalf("window bound not materially below plane memory: peak %d vs planes %d (<5x)", peak, planeBytes)
	}
	t.Logf("decode peak coefficient bytes: %d (bound %d, whole planes %d, %.0fx reduction)",
		peak, bound, planeBytes, float64(planeBytes)/float64(peak))
}

// TestDecodeHoldsAtMostEightWindows decodes and verifies a 32-segment
// container: however many segments a file has, at most eight run at once,
// so the peak coefficient memory is eight row windows, not 32. With as
// many Ps as segments every started unit runs at once, so only the
// live-segment bound keeps the peak down, not the host's core count.
func TestDecodeHoldsAtMostEightWindows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(32))
	data := genJPEG(t, 41, 960, 1536)
	res, err := encode(data, EncodeOptions{ForceSegments: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 32 {
		t.Fatalf("%d segments, want 32", res.Segments)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := liveWindowBound(f, res.Segments)
	runs := []struct {
		name string
		run  func(cd *Codec) error
	}{
		{"DecodeCtx", func(cd *Codec) error {
			back, err := cd.DecodeCtx(context.Background(), res.Compressed)
			if err == nil && !bytes.Equal(back, data) {
				t.Error("DecodeCtx: round trip differs from input")
			}
			return err
		}},
		{"VerifyCtx", func(cd *Codec) error {
			return cd.VerifyCtx(context.Background(), res.Compressed, data)
		}},
	}
	for _, r := range runs {
		cd := NewCodec()
		if err := r.run(cd); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		inUse, peak := coeffMem(cd)
		if inUse != 0 {
			t.Errorf("%s: coefficient accounting leaked: %d bytes still in use", r.name, inUse)
		}
		if peak > bound {
			t.Errorf("%s: peak coefficient bytes %d exceed eight windows (%d)", r.name, peak, bound)
		}
	}
}

// TestWideImageFitsAtThirtyTwoSegments encodes an image so wide that 32
// row windows exceed the default decode budget but eight do not. Since
// only eight segments run at once, it compresses with 32 segments and
// round-trips at the default budget instead of being refused.
func TestWideImageFitsAtThirtyTwoSegments(t *testing.T) {
	img := imagegen.Synthesize(7, 8448, 256)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 75, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := DecodeWindowBytes(f, 1)
	if one*32 <= MemDecodeBudget || one*8 > MemDecodeBudget {
		t.Fatalf("window %d bytes: 32 windows must exceed and 8 fit the %d budget", one, MemDecodeBudget)
	}
	res, err := encode(data, EncodeOptions{ForceSegments: 32})
	if err != nil {
		t.Fatalf("32-segment encode refused: %v", err)
	}
	if res.Segments != 32 {
		t.Fatalf("%d segments, want 32", res.Segments)
	}
	cd := NewCodec()
	if err := cd.VerifyCtx(context.Background(), res.Compressed, data); err != nil {
		t.Fatalf("32-segment round trip: %v", err)
	}
	if _, peak := coeffMem(cd); peak > one*8 {
		t.Fatalf("peak coefficient bytes %d exceed eight windows (%d)", peak, one*8)
	}
}

// TestEncodePeakCoeffBytesUnderWindowBound is the decode test's twin for
// the encode: each segment decodes its own span of the scan into one row
// window, so the encode's peak coefficient memory is within the same
// row-window bound, far below the whole planes.
func TestEncodePeakCoeffBytesUnderWindowBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megapixel conversion")
	}
	data := bigSynthetic(t)
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCodec()
	res, err := cd.EncodeCtx(context.Background(), data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bound := DecodeWindowBytes(f, res.Segments)
	planeBytes := int64(f.CoefficientCount()) * 2
	inUse, peak := coeffMem(cd)
	if inUse != 0 {
		t.Fatalf("coefficient accounting leaked: %d bytes still in use", inUse)
	}
	if peak > bound || peak*5 > planeBytes {
		t.Fatalf("encode peak coefficient bytes %d: want <= window bound %d and <= planes/5 (%d)", peak, bound, planeBytes/5)
	}
	t.Logf("encode peak coefficient bytes: %d (bound %d, %d segments, whole planes %d)",
		peak, bound, res.Segments, planeBytes)
}

// The TestEncodeWindow tests pin the encode's memory bound: one row window
// per live segment, at most eight at once. CI also runs them under -race at
// one, two and eight CPUs.

// windowJPEG is a 4:2:0 photo tall enough that its coefficient planes
// (14 MB) are about twenty times eight of its row windows.
func windowJPEG(t testing.TB) ([]byte, *jpeg.File) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-megapixel conversion; CI runs it in its own race step")
	}
	data := genJPEG(t, 33, 1024, 4608)
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data, f
}

// serialEncode is the reference output: the same encode on one CPU, where
// segments run one after another.
func serialEncode(t *testing.T, data []byte, segs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, err := encode(data, EncodeOptions{ForceSegments: segs})
	if err != nil {
		t.Fatal(err)
	}
	return res.Compressed
}

// checkEncodeWindow encodes data as segs segments on a fresh codec and
// checks the output against the one-CPU encode and the peak coefficient
// bytes against one row window per live segment.
func checkEncodeWindow(t *testing.T, data []byte, f *jpeg.File, segs int) {
	t.Helper()
	cd := NewCodec()
	res, err := cd.EncodeCtx(context.Background(), data, EncodeOptions{ForceSegments: segs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != segs {
		t.Fatalf("%d segments, want %d", res.Segments, segs)
	}
	if !bytes.Equal(res.Compressed, serialEncode(t, data, segs)) {
		t.Fatalf("encode at %d CPUs differs from the one-CPU encode", runtime.GOMAXPROCS(0))
	}
	bound := DecodeWindowBytes(f, min(segs, maxLiveSegments))
	inUse, peak := coeffMem(cd)
	if inUse != 0 {
		t.Fatalf("coefficient accounting leaked: %d bytes still in use", inUse)
	}
	if peak > bound {
		t.Fatalf("%d-segment encode at %d CPUs: peak %d bytes > %d row windows (%d bytes)",
			segs, runtime.GOMAXPROCS(0), peak, min(segs, maxLiveSegments), bound)
	}
	t.Logf("%d segments, %d CPUs: peak %d bytes, bound %d, planes %d",
		segs, runtime.GOMAXPROCS(0), peak, bound, int64(f.CoefficientCount())*2)
}

// TestEncodeWindowOneSegment: a one-segment encode holds one row window.
func TestEncodeWindowOneSegment(t *testing.T) {
	data, f := windowJPEG(t)
	checkEncodeWindow(t, data, f, 1)
}

// TestEncodeWindowSixteenSegments: sixteen segments hold at most eight row
// windows, however many CPUs run them.
func TestEncodeWindowSixteenSegments(t *testing.T) {
	data, f := windowJPEG(t)
	checkEncodeWindow(t, data, f, 16)
}

// TestEncodeWindowCancel cancels an encode while its segments hold rows: it
// must return ctx.Err() promptly, with every window given back, and leave
// the codec reusable.
func TestEncodeWindowCancel(t *testing.T) {
	data, _ := windowJPEG(t)
	cd := NewCodec()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := cd.EncodeCtx(ctx, data, EncodeOptions{ForceSegments: 8})
		errc <- err
	}()
	for {
		if inUse, _ := coeffMem(cd); inUse > 0 {
			break
		}
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled encode returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("cancelled encode did not return")
	}
	if inUse, _ := coeffMem(cd); inUse != 0 {
		t.Fatalf("cancelled encode left %d coefficient bytes in use", inUse)
	}
	res, err := cd.EncodeCtx(context.Background(), data, EncodeOptions{ForceSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Compressed, serialEncode(t, data, 8)) {
		t.Fatal("encode after a cancelled one differs from the reference")
	}
}

// TestRowPoolsKeepShapes decodes, then encodes, then decodes on one codec.
// Encode segments and decode units take their ring windows from one slab
// pool, so every buffer left in it is a whole window of the image, and the
// encode gave its windows back.
func TestRowPoolsKeepShapes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // pooled buffers stay put
	data, f := windowJPEG(t)
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCodec()
	slabLen := int(DecodeWindowBytes(f, 1) / 2)
	for _, step := range []string{"decode", "encode", "decode"} {
		var err error
		if step == "decode" {
			_, err = cd.DecodeCtx(context.Background(), res.Compressed)
		} else {
			_, err = cd.EncodeCtx(context.Background(), data, EncodeOptions{})
		}
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		slabs := 0
		var held []any
		for v := cd.slabs.Get(); v != nil; v = cd.slabs.Get() {
			if n := cap(v.(*rowSlab).buf); n != slabLen {
				t.Fatalf("after %s: slab pool holds a %d-coefficient buffer, want %d", step, n, slabLen)
			}
			held = append(held, v)
			slabs++
		}
		if slabs == 0 && !raceEnabled {
			t.Fatalf("after %s: no window went back to the slab pool", step)
		}
		for _, v := range held {
			cd.slabs.Put(v)
		}
	}
}

// BenchmarkDecodeMemory reports per-decode allocations (run with -benchmem:
// B/op is the Figure-3 regression series for the streaming decoder) plus
// the peak streamed coefficient bytes as a custom metric. Each iteration
// decodes with a fresh codec, so B/op includes filling its pools.
func BenchmarkDecodeMemory(b *testing.B) {
	img := imagegen.Synthesize(5, 2048, 1536)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, PadBit: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var peak int64
	for i := 0; i < b.N; i++ {
		cd := NewCodec()
		if _, err := cd.DecodeCtx(context.Background(), res.Compressed); err != nil {
			b.Fatal(err)
		}
		_, p := coeffMem(cd)
		peak = max(peak, p)
	}
	b.ReportMetric(float64(peak), "peak-coeff-B")
}

// BenchmarkEncodeMemory is BenchmarkDecodeMemory's twin for the encoder:
// per-encode allocations (run with -benchmem: B/op is the Figure-3 series
// for the streamed encode) plus the peak coefficient bytes the segments'
// row windows held, as a custom metric. Each iteration encodes with a
// fresh codec, so B/op includes filling its pools.
func BenchmarkEncodeMemory(b *testing.B) {
	img := imagegen.Synthesize(5, 2048, 1536)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, PadBit: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var peak int64
	for i := 0; i < b.N; i++ {
		cd := NewCodec()
		if _, err := cd.EncodeCtx(context.Background(), data, EncodeOptions{}); err != nil {
			b.Fatal(err)
		}
		_, p := coeffMem(cd)
		peak = max(peak, p)
	}
	b.ReportMetric(float64(peak), "peak-coeff-B")
}
