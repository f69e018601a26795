package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

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
