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
	if planeBytes := int64(f.CoefficientCount()) * 2; planeBytes <= DefaultMemDecodeBudget {
		t.Fatalf("test image too small to exercise the old wall: planes %d <= budget %d",
			planeBytes, DefaultMemDecodeBudget)
	}
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatalf("over-plane-budget image no longer encodes: %v", err)
	}
	back, err := decode(res.Compressed, 0)
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
	if _, err := cd.DecodeCtx(context.Background(), res.Compressed, 0); err != nil {
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
			back, err := cd.DecodeCtx(context.Background(), res.Compressed, 0)
			if err == nil && !bytes.Equal(back, data) {
				t.Error("DecodeCtx: round trip differs from input")
			}
			return err
		}},
		{"VerifyCtx", func(cd *Codec) error {
			return cd.VerifyCtx(context.Background(), res.Compressed, data, 0)
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
	if one*32 <= DefaultMemDecodeBudget || one*8 > DefaultMemDecodeBudget {
		t.Fatalf("window %d bytes: 32 windows must exceed and 8 fit the %d budget", one, DefaultMemDecodeBudget)
	}
	res, err := encode(data, EncodeOptions{ForceSegments: 32})
	if err != nil {
		t.Fatalf("32-segment encode refused: %v", err)
	}
	if res.Segments != 32 {
		t.Fatalf("%d segments, want 32", res.Segments)
	}
	cd := NewCodec()
	if err := cd.VerifyCtx(context.Background(), res.Compressed, data, 0); err != nil {
		t.Fatalf("32-segment round trip: %v", err)
	}
	if _, peak := coeffMem(cd); peak > one*8 {
		t.Fatalf("peak coefficient bytes %d exceed eight windows (%d)", peak, one*8)
	}
}

// TestEncodePeakCoeffBytesUnderGate asserts the encode producer/consumer
// pipeline runs at its structural floor: with the encode budget set to
// encodeMinGateBytes — a few block rows per component, independent of image
// height and segment count — the encode completes byte-identically to the
// default budget and never retains more coefficient bytes than the floor.
func TestEncodePeakCoeffBytesUnderGate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megapixel conversion")
	}
	data := bigSynthetic(t)
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	floor := encodeMinGateBytes(f)
	want, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCodec()
	got, err := cd.EncodeCtx(context.Background(), data, EncodeOptions{MemEncodeBudget: floor})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Compressed, want.Compressed) {
		t.Fatal("floor-budget encode differs from default-budget encode")
	}
	inUse, peak := coeffMem(cd)
	if inUse != 0 {
		t.Fatalf("coefficient accounting leaked: %d bytes still in use", inUse)
	}
	if peak > floor {
		t.Fatalf("encode peak coefficient bytes %d exceed gate floor %d", peak, floor)
	}
	t.Logf("encode peak coefficient bytes: %d (floor %d, %d segments, whole planes %d)",
		peak, floor, got.Segments, int64(f.CoefficientCount())*2)
}

// TestTightEncodeGateStillStreams forces the encode budget below the
// structural minimum: the gate must raise itself to the deadlock-free floor
// and complete (byte-identically), not hang or reject.
func TestTightEncodeGateStillStreams(t *testing.T) {
	data := genJPEG(t, 77, 512, 384)
	want, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Small enough that the gate must sit below the structural minimum,
	// large enough to pass the parser's row-window floor.
	got, err := encode(data, EncodeOptions{MemEncodeBudget: 64 << 10, MemDecodeBudget: DefaultMemDecodeBudget})
	if err != nil {
		t.Fatalf("tight encode gate rejected instead of streaming: %v", err)
	}
	if !bytes.Equal(got.Compressed, want.Compressed) {
		t.Fatal("tight-gate output differs from default output")
	}
}

// The TestEncodeWindow tests pin the encode's run-ahead rule (see
// EncodeScanCtx) at the default budget; CI also runs them under -race at
// one, two and eight CPUs.

// windowJPEG is a 4:2:0 photo tall enough that its coefficient planes
// (14 MB) are more than three times the encode's room.
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

// floorEncode is the reference output: the same encode with the gate at
// its structural floor.
func floorEncode(t *testing.T, data []byte, f *jpeg.File, segs int) []byte {
	t.Helper()
	res, err := encode(data, EncodeOptions{ForceSegments: segs, MemEncodeBudget: encodeMinGateBytes(f)})
	if err != nil {
		t.Fatal(err)
	}
	return res.Compressed
}

// TestEncodeWindowOneSegment: a one-segment encode has no later segment to
// run ahead for, so its feed never holds more than the room — a few row
// windows, not the planes — and the output is the floor-budget encode's.
func TestEncodeWindowOneSegment(t *testing.T) {
	data, f := windowJPEG(t)
	cd := NewCodec()
	res, err := cd.EncodeCtx(context.Background(), data, EncodeOptions{ForceSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Compressed, floorEncode(t, data, f, 1)) {
		t.Fatal("default-budget encode differs from floor-budget encode")
	}
	room, _ := encodeRoom(f)
	planes := int64(f.CoefficientCount()) * 2
	inUse, peak := coeffMem(cd)
	if inUse != 0 {
		t.Fatalf("coefficient accounting leaked: %d bytes still in use", inUse)
	}
	if peak > room || peak*3 > planes {
		t.Fatalf("one-segment encode peak %d bytes: want <= room %d and <= planes/3 (%d)", peak, room, planes/3)
	}
	t.Logf("peak %d bytes, room %d, planes %d", peak, room, planes)
}

// TestEncodeWindowRunAhead: with many segments the producer passes (fills
// past the room) at most min(GOMAXPROCS, 8) unfinished segments at once,
// so the peak is at most the room plus that many of the largest segment.
func TestEncodeWindowRunAhead(t *testing.T) {
	const segs = 16
	data, f := windowJPEG(t)
	cd := NewCodec()
	res, err := cd.EncodeCtx(context.Background(), data, EncodeOptions{ForceSegments: segs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != segs {
		t.Fatalf("%d segments, want %d", res.Segments, segs)
	}
	if !bytes.Equal(res.Compressed, floorEncode(t, data, f, segs)) {
		t.Fatal("default-budget encode differs from floor-budget encode")
	}
	starts := SegmentStarts(f, segs, 0, f.MCUsHigh)
	var largest int64
	for i, start := range starts {
		end := f.TotalMCUs()
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		rs, re := rowRangesFor(f, start, end)
		var b int64
		for ci := range rs {
			b += int64(re[ci]-rs[ci]) * rowBytes(f, ci)
		}
		largest = max(largest, b)
	}
	room, _ := encodeRoom(f)
	cpus := min(runtime.GOMAXPROCS(0), maxLiveSegments)
	bound := room + int64(cpus)*largest
	inUse, peak := coeffMem(cd)
	if inUse != 0 {
		t.Fatalf("coefficient accounting leaked: %d bytes still in use", inUse)
	}
	if peak > bound {
		t.Fatalf("%d-segment encode at %d CPUs: peak %d bytes > room %d + %d x largest segment %d",
			segs, cpus, peak, room, cpus, largest)
	}
	t.Logf("%d CPUs: peak %d bytes, bound %d, planes %d", cpus, peak, bound, int64(f.CoefficientCount())*2)
}

// TestEncodeWindowCancel cancels an encode while its feeds hold rows: it
// must return ctx.Err() promptly, with every gate byte given back, and
// leave the codec reusable.
func TestEncodeWindowCancel(t *testing.T) {
	data, f := windowJPEG(t)
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
	if !bytes.Equal(res.Compressed, floorEncode(t, data, f, 8)) {
		t.Fatal("encode after a cancelled one differs from the reference")
	}
}

// TestRowPoolsKeepShapes decodes, then encodes, then decodes on one codec.
// The encode's feed rows and the decode's ring slabs live in separate
// pools: every buffer left in the row pool is one block row of the image
// (never a slab an encode row pinned), and every buffer in the slab pool is
// a whole window (never a row a slab request would drop).
func TestRowPoolsKeepShapes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // pooled buffers stay put
	data, f := windowJPEG(t)
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCodec()
	for _, step := range []string{"decode", "encode", "decode"} {
		var err error
		if step == "decode" {
			_, err = cd.DecodeCtx(context.Background(), res.Compressed, 0)
		} else {
			_, err = cd.EncodeCtx(context.Background(), data, EncodeOptions{})
		}
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	rowLen := map[int]bool{}
	for ci := range f.Components {
		rowLen[f.Components[ci].BlocksWide*64] = true
	}
	slabLen := int(DecodeWindowBytes(f, 1) / 2)
	rows := 0
	for v := cd.rows.Get(); v != nil; v = cd.rows.Get() {
		if n := cap(v.(*rowSlab).buf); !rowLen[n] {
			t.Fatalf("row pool holds a %d-coefficient buffer; rows are %v, a slab is %d", n, rowLen, slabLen)
		}
		rows++
	}
	for v := cd.slabs.Get(); v != nil; v = cd.slabs.Get() {
		if n := cap(v.(*rowSlab).buf); n != slabLen {
			t.Fatalf("slab pool holds a %d-coefficient buffer, want %d", n, slabLen)
		}
	}
	if rows == 0 && !raceEnabled {
		t.Fatal("encode returned no rows to the row pool")
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
		if _, err := cd.DecodeCtx(context.Background(), res.Compressed, 0); err != nil {
			b.Fatal(err)
		}
		_, p := coeffMem(cd)
		peak = max(peak, p)
	}
	b.ReportMetric(float64(peak), "peak-coeff-B")
}

// BenchmarkEncodeMemory is BenchmarkDecodeMemory's twin for the encoder:
// per-encode allocations at the default budget (run with -benchmem: B/op is
// the Figure-3 series for the streamed encode) plus the peak coefficient
// bytes the feeds held, as a custom metric. Each iteration encodes with a
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
