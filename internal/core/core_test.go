package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

func mustGen(t testing.TB, seed int64, w, h int) []byte {
	t.Helper()
	data, err := imagegen.Generate(seed, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encode, decode, decodeTo and decodeRange run one conversion on a fresh
// codec.
func encode(data []byte, opt core.EncodeOptions) (*core.Result, error) {
	return core.NewCodec().EncodeCtx(context.Background(), data, opt)
}

func decode(comp []byte) ([]byte, error) {
	return core.NewCodec().DecodeCtx(context.Background(), comp)
}

func decodeTo(w io.Writer, comp []byte) error {
	return core.NewCodec().DecodeToCtx(context.Background(), w, comp)
}

func decodeRange(comp []byte, off, n int64) ([]byte, error) {
	return core.NewCodec().DecodeRangeCtx(context.Background(), comp, off, n)
}

func roundTrip(t *testing.T, data []byte, opt core.EncodeOptions) *core.Result {
	t.Helper()
	res, err := encode(data, opt)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := decode(res.Compressed)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(back, data) {
		i := 0
		for i < len(back) && i < len(data) && back[i] == data[i] {
			i++
		}
		t.Fatalf("round trip differs at byte %d (lens %d vs %d)", i, len(back), len(data))
	}
	return res
}

func TestEncodeDecodeBasic(t *testing.T) {
	data := mustGen(t, 1, 160, 120)
	res := roundTrip(t, data, core.EncodeOptions{})
	if len(res.Compressed) >= len(data) {
		t.Fatalf("no compression: %d >= %d", len(res.Compressed), len(data))
	}
	t.Logf("savings: %.1f%%", 100*(1-float64(len(res.Compressed))/float64(len(data))))
}

func TestEncodeDecodeMatrix(t *testing.T) {
	seeds := []int64{10, 11, 12, 13, 14, 15, 16, 17}
	sizes := [][2]int{{64, 64}, {200, 152}, {33, 57}, {400, 304}, {16, 16}}
	for _, seed := range seeds[:4] {
		for _, sz := range sizes {
			data := mustGen(t, seed, sz[0], sz[1])
			roundTrip(t, data, core.EncodeOptions{})
		}
	}
}

func TestEncodeVerifyRoundtripOption(t *testing.T) {
	data := mustGen(t, 2, 96, 96)
	if _, err := encode(data, core.EncodeOptions{VerifyRoundtrip: true}); err != nil {
		t.Fatalf("verified encode failed: %v", err)
	}
}

func TestMultiSegment(t *testing.T) {
	data := mustGen(t, 3, 512, 384)
	for _, n := range []int{1, 2, 4, 8} {
		res := roundTrip(t, data, core.EncodeOptions{ForceSegments: n})
		if res.Segments != n {
			t.Fatalf("segments = %d, want %d", res.Segments, n)
		}
	}
}

func TestSegmentsReduceCompression(t *testing.T) {
	// More segments -> independent models -> slightly worse compression
	// (§3.4). Allow noise but the 1-segment version must not be bigger than
	// the 8-segment version by any meaningful margin.
	data := mustGen(t, 4, 512, 512)
	r1, err := encode(data, core.EncodeOptions{ForceSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := encode(data, core.EncodeOptions{ForceSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(r1.Compressed)) > float64(len(r8.Compressed))*1.005 {
		t.Fatalf("1 segment (%d) much bigger than 8 segments (%d)",
			len(r1.Compressed), len(r8.Compressed))
	}
}

func TestSingleModelMode(t *testing.T) {
	data := mustGen(t, 5, 512, 384)
	res := roundTrip(t, data, core.EncodeOptions{SingleModel: true})
	if res.Segments != 1 {
		t.Fatalf("single model used %d segments", res.Segments)
	}
}

func TestAblationFlags(t *testing.T) {
	data := mustGen(t, 6, 256, 256)
	full := roundTrip(t, data, func() core.EncodeOptions { f := model.DefaultFlags(); return core.EncodeOptions{Flags: &f} }())
	noDC := roundTrip(t, data, core.EncodeOptions{Flags: &model.Flags{EdgePrediction: true, DCGradient: false}})
	noEdge := roundTrip(t, data, core.EncodeOptions{Flags: &model.Flags{EdgePrediction: false, DCGradient: true}})
	// The full model should be at least as good as each ablation on a
	// photographic image (small tolerance for noise).
	if float64(len(full.Compressed)) > 1.01*float64(len(noDC.Compressed)) {
		t.Errorf("DC gradient prediction hurt: %d vs %d", len(full.Compressed), len(noDC.Compressed))
	}
	if float64(len(full.Compressed)) > 1.01*float64(len(noEdge.Compressed)) {
		t.Errorf("edge prediction hurt: %d vs %d", len(full.Compressed), len(noEdge.Compressed))
	}
}

func TestStatsBreakdown(t *testing.T) {
	data := mustGen(t, 7, 320, 240)
	res, err := encode(data, core.EncodeOptions{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	var orig, comp int64
	for c := 0; c < model.NumClasses; c++ {
		orig += res.OriginalClassBits[c]
		comp += int64(res.ClassBits[c])
	}
	if orig == 0 || comp == 0 {
		t.Fatal("empty stats")
	}
	// Compressed coefficient bits must be smaller than original Huffman
	// bits overall.
	if comp >= orig {
		t.Fatalf("no coefficient-level savings: %d >= %d", comp, orig)
	}
	// The scan account must roughly match the actual scan size.
	f, _ := jpeg.Parse(data, 0)
	scanBits := int64(len(f.ScanData)) * 8
	if orig < scanBits*8/10 || orig > scanBits*11/10 {
		t.Fatalf("original class bits %d vs scan bits %d", orig, scanBits)
	}
}

// TestOriginalClassBitsCountTheScan: Figure 4's original-bits column sums
// to the scan's Huffman-coded bits — its bytes less byte stuffing and
// restart markers, less at most seven pad bits per restart interval — in
// every scan layout, with and without restart markers. A tally that
// chained DC differences in another order than the scan codes them would
// count other DC categories.
func TestOriginalClassBitsCountTheScan(t *testing.T) {
	img := imagegen.Synthesize(23, 120, 88)
	layouts := []imagegen.Options{{Quality: 85, Grayscale: true}, {Quality: 80, SubsampleChroma: true}, {Quality: 75}}
	for _, o := range layouts {
		for _, ri := range []int{0, 5} {
			o.RestartInterval, o.PadBit = ri, 1
			data, err := imagegen.EncodeJPEG(img, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := encode(data, core.EncodeOptions{CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			f, err := jpeg.Parse(data, 0)
			if err != nil {
				t.Fatal(err)
			}
			var bits, markers int64
			for i, sd := 0, f.ScanData; i < len(sd); i++ {
				if sd[i] == 0xFF && i+1 < len(sd) {
					if sd[i+1] != 0 {
						markers++
						i++
						continue
					}
					i++ // stuffed zero
				}
				bits += 8
			}
			var counted int64
			for _, b := range res.OriginalClassBits {
				counted += b
			}
			if counted > bits || counted < bits-7*(markers+1) {
				t.Errorf("%+v: classes count %d bits, scan codes %d less up to %d pad bits",
					o, counted, bits, 7*(markers+1))
			}
		}
	}
}

func TestDecodeRejectsCorruptContainer(t *testing.T) {
	data := mustGen(t, 8, 128, 128)
	res, err := encode(data, core.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp := res.Compressed
	// Header corruptions must error, never panic.
	for _, i := range []int{0, 1, 2, 3, 5, 20, 25} {
		if i < len(comp) {
			bad := append([]byte(nil), comp...)
			bad[i] ^= 0xFF
			_, _ = decode(bad)
		}
	}
	// The Appendix A.1 interleaved body (mode 'I') is not a mode this
	// package reads.
	interleaved := append([]byte(nil), comp...)
	interleaved[3] = 'I'
	if _, err := decode(interleaved); !errors.Is(err, core.ErrBadContainer) || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("mode 'I' container: err %v, want the unknown-mode rejection", err)
	}
	// Truncations. The container ends with an optional seek-index section
	// that readers must tolerate losing (it is advisory: a damaged index
	// falls back to full decode), so the must-fail region is everything up
	// to the end of the arithmetic streams — the index-less container's
	// exact length.
	streamEnd := len(core.CutSeekIndex(comp))
	if streamEnd >= len(comp) {
		t.Fatalf("expected a trailing seek index: %d >= %d", streamEnd, len(comp))
	}
	for _, n := range []int{0, 1, 4, 27, 40, streamEnd / 2, streamEnd - 1} {
		if n <= len(comp) {
			_, err := decode(comp[:n])
			if err == nil && n < streamEnd {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	}
	// Truncating within the trailing index must still decode — to the
	// right bytes — with the mangled index discarded.
	for _, n := range []int{streamEnd, len(comp) - 1} {
		out, err := decode(comp[:n])
		if err != nil {
			t.Fatalf("truncation into seek index (%d bytes): %v", n, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("truncation into seek index (%d bytes) changed output", n)
		}
	}
	// Body bit flips: must error or produce different output, never panic.
	for i := 60; i < len(comp); i += 97 {
		bad := append([]byte(nil), comp...)
		bad[i] ^= 0x10
		out, err := decode(bad)
		if err == nil && bytes.Equal(out, data) && i > 80 {
			// Flipping arithmetic-stream bits that still decode identically
			// would indicate the bits are ignored.
			t.Logf("note: flip at %d was inert", i)
		}
	}
}

// TestDecodeMemBudget: a container whose stored header is as wide as the
// format allows, with enough thread segments that their row windows
// exceed the decode budget, is refused before anything is decoded, by the
// full decode and by a range read alike.
func TestDecodeMemBudget(t *testing.T) {
	f, err := jpeg.Parse(imagegen.OversizeStub(1), core.MemEncodeBudget)
	if err != nil {
		t.Fatal(err)
	}
	c := &core.Container{Mode: core.ModeLepton, OutputSize: 1 << 30, JPEGHeader: f.Header,
		MCUEnd: uint32(8 * f.MCUsWide)}
	for i := 0; i < 8; i++ {
		c.Segments = append(c.Segments, core.Segment{StartMCU: uint32(i * f.MCUsWide)})
		c.Streams = append(c.Streams, nil)
	}
	if w := core.DecodeWindowBytes(f, len(c.Segments)); w <= core.MemDecodeBudget {
		t.Fatalf("row windows %d bytes fit the %d budget", w, core.MemDecodeBudget)
	}
	comp, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(comp); jpeg.ReasonOf(err) != jpeg.ReasonMemDecode {
		t.Fatalf("decode: reason = %v (%v), want MemDecode", jpeg.ReasonOf(err), err)
	}
	if _, err := decodeRange(comp, 0, 10); jpeg.ReasonOf(err) != jpeg.ReasonMemDecode {
		t.Fatalf("range decode: reason = %v (%v), want MemDecode", jpeg.ReasonOf(err), err)
	}
}

// TestEncodeMemBudget: a file whose decode row windows cannot fit the
// decode budget is refused at encode time, so nothing stored is
// undecodable.
func TestEncodeMemBudget(t *testing.T) {
	_, err := encode(imagegen.OversizeStub(10), core.EncodeOptions{})
	if jpeg.ReasonOf(err) != jpeg.ReasonMemDecode {
		t.Fatalf("reason = %v, want MemDecode", jpeg.ReasonOf(err))
	}
}

func TestRawMode(t *testing.T) {
	payload := []byte("definitely not a JPEG, but must round trip verbatim")
	c := &core.Container{Mode: core.ModeRaw, Raw: payload, OutputSize: uint32(len(payload))}
	comp, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsLepton(comp) {
		t.Fatal("raw container missing magic")
	}
	back, err := decode(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("raw mode mismatch")
	}
}

func TestContainerMarshalUnmarshal(t *testing.T) {
	c := &core.Container{
		Mode:       core.ModeLepton,
		OutputSize: 12345,
		JPEGHeader: []byte{0xFF, 0xD8, 1, 2, 3},
		Trailer:    []byte{0xFF, 0xD9},
		Prepend:    []byte{9, 9},
		Tail:       []byte{0, 0, 0},
		PadBit:     1,
		EmitHeader: true,
		EmitTail:   true,
		RSTCount:   7,
		MCUStart:   3,
		MCUEnd:     99,
		Segments: []core.Segment{
			{StartMCU: 3, Handover: core.Handover{BitOff: 5, Partial: 0xA0, RSTSeen: 2, PrevDC: [4]int16{-100, 5, 0, 7}}, ArithLen: 4},
			{StartMCU: 50, Handover: core.Handover{BitOff: 0, Partial: 0, RSTSeen: 4}, ArithLen: 3},
		},
		Streams: [][]byte{{1, 2, 3, 4}, {5, 6, 7}},
	}
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.OutputSize != c.OutputSize || got.PadBit != c.PadBit ||
		got.RSTCount != c.RSTCount || got.MCUStart != c.MCUStart || got.MCUEnd != c.MCUEnd ||
		!got.EmitHeader || !got.EmitTail {
		t.Fatalf("scalar fields mismatch: %+v", got)
	}
	if !bytes.Equal(got.JPEGHeader, c.JPEGHeader) || !bytes.Equal(got.Trailer, c.Trailer) ||
		!bytes.Equal(got.Prepend, c.Prepend) || !bytes.Equal(got.Tail, c.Tail) {
		t.Fatal("byte fields mismatch")
	}
	if len(got.Segments) != 2 || got.Segments[0].Handover != c.Segments[0].Handover {
		t.Fatalf("segments mismatch: %+v", got.Segments)
	}
	if !bytes.Equal(got.Streams[1], c.Streams[1]) {
		t.Fatal("streams mismatch")
	}
}

func TestRejectionClassification(t *testing.T) {
	base := mustGen(t, 11, 96, 96)
	cases := []struct {
		name string
		data []byte
		want jpeg.Reason
	}{
		{"progressive", imagegen.MakeProgressive(base), jpeg.ReasonProgressive},
		{"cmyk", imagegen.CMYKStub(), jpeg.ReasonCMYK},
		{"notimage", imagegen.NotImage(1, 512), jpeg.ReasonNotImage},
		{"headeronly", imagegen.HeaderOnly(base), jpeg.ReasonUnsupported},
		{"bigchroma", imagegen.BigChromaStub(), jpeg.ReasonChromaSub},
	}
	for _, tc := range cases {
		_, err := encode(tc.data, core.EncodeOptions{})
		if got := jpeg.ReasonOf(err); got != tc.want {
			t.Errorf("%s: reason = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRestartIntervalRoundTrip(t *testing.T) {
	img := imagegen.Synthesize(21, 320, 240)
	for _, ri := range []int{1, 2, 5, 16} {
		data, err := imagegen.EncodeJPEG(img, imagegen.Options{
			Quality: 82, SubsampleChroma: true, RestartInterval: ri, PadBit: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, data, core.EncodeOptions{ForceSegments: 4})
	}
}

func TestGrayscaleRoundTrip(t *testing.T) {
	img := imagegen.Synthesize(22, 300, 220)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, Grayscale: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, data, core.EncodeOptions{ForceSegments: 4})
}

func TestSingleVsMultiThreadIdentical(t *testing.T) {
	// The §6.7 "second alarm" regression: single- and multi-segment decode
	// paths must produce identical bytes.
	data := mustGen(t, 23, 384, 288)
	res, err := encode(data, core.EncodeOptions{ForceSegments: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := decode(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := decodeTo(&buf, res.Compressed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, buf.Bytes()) || !bytes.Equal(a, data) {
		t.Fatal("decode paths disagree")
	}
}

// TestSegmentCountFor pins the count rule: Figure 7's cutoffs below
// 1.5 MB, then one segment per 128 KiB up to 64.
func TestSegmentCountFor(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 1},
		{50 << 10, 1},
		{100<<10 - 1, 1},
		{100 << 10, 2},
		{400<<10 - 1, 2},
		{400 << 10, 4},
		{1 << 20, 4},
		{3<<20/2 - 1, 4},
		{3 << 20 / 2, 12},
		{4 << 20, 32},
		{4<<20 + 1, 33},
		{8 << 20, 64},
		{1 << 30, 64},
	} {
		if got := core.SegmentCountFor(c.n); got != c.want {
			t.Errorf("SegmentCountFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestForceSegmentsOutOfRangeRefused checks that an explicit segment count
// the decoder would refuse is refused at encode time, before any work,
// and that the largest allowed count still round-trips.
func TestForceSegmentsOutOfRangeRefused(t *testing.T) {
	data := mustGen(t, 3, 32, 17600)
	for _, n := range []int{-1, core.MaxSegments + 1, 1025} {
		if _, err := encode(data, core.EncodeOptions{ForceSegments: n}); err == nil {
			t.Errorf("ForceSegments %d: encode succeeded", n)
		}
	}
	res := roundTrip(t, data, core.EncodeOptions{ForceSegments: core.MaxSegments})
	if res.Segments != core.MaxSegments {
		t.Fatalf("%d segments, want %d", res.Segments, core.MaxSegments)
	}
}

// writeRecorder captures each Write call to observe streaming behavior.
type writeRecorder struct {
	chunks [][]byte
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, append([]byte(nil), p...))
	return len(p), nil
}

func TestDecodeToStreamsInOrder(t *testing.T) {
	data := mustGen(t, 60, 512, 384)
	res, err := encode(data, core.EncodeOptions{ForceSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := &writeRecorder{}
	if err := decodeTo(rec, res.Compressed); err != nil {
		t.Fatal(err)
	}
	// Multiple writes (header + per-segment + trailer), concatenating to
	// the exact original: the streaming contract of §3.4.
	if len(rec.chunks) < 4 {
		t.Fatalf("only %d writes; expected per-segment streaming", len(rec.chunks))
	}
	var joined []byte
	for _, c := range rec.chunks {
		joined = append(joined, c...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("streamed writes do not concatenate to the original")
	}
	// Every prefix of the stream is a prefix of the original file — a
	// client can start consuming immediately.
	off := 0
	for _, c := range rec.chunks {
		if !bytes.Equal(c, data[off:off+len(c)]) {
			t.Fatalf("write at offset %d is not a prefix continuation", off)
		}
		off += len(c)
	}
}
