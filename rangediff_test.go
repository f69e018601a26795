package lepton_test

import (
	"bytes"
	"context"
	"image"
	stdjpeg "image/jpeg"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lepton"
	"lepton/internal/core"
	"lepton/internal/imagegen"
)

// goldenInput regenerates the deterministic source JPEG and compression
// options for one golden corpus case.
func goldenInput(t testing.TB, name string, seed int64, w, h int) ([]byte, *lepton.Options) {
	t.Helper()
	opt := &lepton.Options{}
	var data []byte
	var err error
	switch name {
	case "gray":
		img := imagegen.Synthesize(seed, w, h)
		data, err = imagegen.EncodeJPEG(img, imagegen.Options{
			Quality: 85, Grayscale: true, PadBit: 1,
		})
	case "progressive":
		// The source JPEG of the decode-only progressive fixtures.
		data, err = os.ReadFile(filepath.Join("testdata", "golden-progressive.jpg"))
	case "cmyk":
		img := imagegen.Synthesize(seed, w, h)
		data, err = imagegen.EncodeJPEG(img, imagegen.Options{
			Quality: 85, CMYK: true, PadBit: 1, RestartInterval: 4,
		})
		opt.AllowCMYK = true
	default:
		data, err = imagegen.Generate(seed, w, h)
	}
	if err != nil {
		t.Fatal(err)
	}
	return data, opt
}

// rangeCodec serves every checkRange read, so the differential also runs
// across a codec whose pools carry state from earlier reads.
var rangeCodec = lepton.NewCodec()

// checkRange asserts DecompressRangeCtx(comp, off, n) equals the matching
// slice of the full reconstruction.
func checkRange(t *testing.T, comp, full []byte, off, n int64) {
	t.Helper()
	got, err := rangeCodec.DecompressRangeCtx(context.Background(), comp, off, n)
	if err != nil {
		t.Fatalf("DecompressRangeCtx(off=%d n=%d): %v", off, n, err)
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
		t.Fatalf("DecompressRangeCtx(off=%d n=%d): %d bytes differ from full-decode slice (first diff %d)",
			off, n, len(got), firstDiff(got, full[a:z]))
	}
	wantN, err := lepton.RangeLength(comp, off, n)
	if err != nil {
		t.Fatalf("RangeLength(off=%d n=%d): %v", off, n, err)
	}
	if int64(len(got)) != wantN {
		t.Fatalf("RangeLength(off=%d n=%d)=%d but DecompressRangeCtx returned %d bytes",
			off, n, wantN, len(got))
	}
}

// TestDecompressRangeGoldenDifferential sweeps byte ranges over every
// golden corpus case — including the progressive and CMYK cases, which
// exercise the full-decode fallback — and asserts each range is
// byte-identical to the corresponding slice of the full decompression.
func TestDecompressRangeGoldenDifferential(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			data, opt := goldenInput(t, tc.name, tc.seed, tc.w, tc.h)
			comp := goldenCompressed(t, "golden", tc.name, tc.refused, data, opt)
			full, err := lepton.Decompress(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full, data) {
				t.Fatal("full decompression does not round-trip")
			}
			size := int64(len(full))
			// Deterministic edges: start, tail, whole file, clamps.
			for _, p := range [][2]int64{
				{0, 0}, {0, 1}, {0, 100}, {0, size}, {0, size * 2},
				{size - 1, 1}, {size - 1, 50}, {size, 10}, {size + 7, 3},
				{size / 2, 1}, {size / 2, 1024}, {1, size - 2},
			} {
				checkRange(t, comp, full, p[0], p[1])
			}
			// Seeded probes: small reads, medium reads, and reads sized to
			// cross MCU-row and thread-segment boundaries.
			rng := rand.New(rand.NewSource(tc.seed * 1000003))
			for i := 0; i < 20; i++ {
				off := rng.Int63n(size)
				n := rng.Int63n(size/3 + 1)
				checkRange(t, comp, full, off, n)
			}
		})
	}
}

// TestDecompressRangeChunks runs the same differential against individual
// chunk containers from chunked compression: each chunk carries its own
// seek index and must serve sub-ranges of its own reconstruction.
func TestDecompressRangeChunks(t *testing.T) {
	data, _ := goldenInput(t, "color-multiseg", 7, 640, 480)
	chunks, err := lepton.NewCodec().CompressChunksCtx(context.Background(), data, &lepton.ChunkOptions{ChunkSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 3 {
		t.Fatalf("want several chunks, got %d", len(chunks))
	}
	rng := rand.New(rand.NewSource(99))
	for k, ch := range chunks {
		full, err := lepton.Decompress(ch)
		if err != nil {
			t.Fatalf("chunk %d: %v", k, err)
		}
		size := int64(len(full))
		for _, p := range [][2]int64{{0, 1}, {0, size}, {size - 1, 1}, {size / 2, 256}} {
			checkRange(t, ch, full, p[0], p[1])
		}
		for i := 0; i < 6; i++ {
			checkRange(t, ch, full, rng.Int63n(size), rng.Int63n(size/2+1))
		}
	}
}

// oldContainerPrefixes names the fixture sets of containers this package
// decodes but no longer writes: legacy-* were captured before the seek
// index existed, v1-* are the last planar-order (version 0x01) containers
// with a seek index.
var oldContainerPrefixes = []string{"legacy", "v1"}

// TestLegacyContainerBackCompat pins decodability of every container format
// the encoder no longer writes: each legacy-* and v1-* fixture must carry
// version byte 0x01 and reconstruct the original bytes through Decompress,
// DecompressToCtx, DecompressCtx and DecompressRangeCtx. Baseline v1-*
// ranges take the indexed fast path over planar segments; index-less
// legacy-* ranges decode every segment whole.
func TestLegacyContainerBackCompat(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			data, _ := goldenInput(t, tc.name, tc.seed, tc.w, tc.h)
			for _, prefix := range oldContainerPrefixes {
				old := goldenFixture(t, prefix, tc.name)
				if old[2] != 0x01 {
					t.Fatalf("%s fixture has version byte %#02x, want 0x01", prefix, old[2])
				}

				back, err := lepton.Decompress(old)
				if err != nil {
					t.Fatalf("%s: Decompress: %v", prefix, err)
				}
				if !bytes.Equal(back, data) {
					t.Fatalf("%s container does not decompress to the original JPEG", prefix)
				}
				codec := lepton.NewCodec()
				var buf bytes.Buffer
				if err := codec.DecompressToCtx(context.Background(), &buf, old); err != nil {
					t.Fatalf("%s: DecompressToCtx: %v", prefix, err)
				}
				if !bytes.Equal(buf.Bytes(), data) {
					t.Fatalf("%s: DecompressToCtx mismatch", prefix)
				}
				if back, err = codec.DecompressCtx(context.Background(), old); err != nil || !bytes.Equal(back, data) {
					t.Fatalf("%s: DecompressCtx: %v", prefix, err)
				}

				checkFixtureRanges(t, prefix, tc.name, old, data)
			}
		})
	}
}

// TestNoIndexContainerPinned pins the index-less containers that earlier
// encoders wrote: the compressed golden case cut before its trailing
// seek-index section must equal the frozen noindex-* fixture byte for byte
// (-update-golden rewrites the fixture by that cut), and the cut container
// must round-trip and serve every range through the index-less fallback.
// CMYK and progressive containers carry no index, so their cut is the
// golden container itself.
func TestNoIndexContainerPinned(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			data, opt := goldenInput(t, tc.name, tc.seed, tc.w, tc.h)
			comp := core.CutSeekIndex(goldenCompressed(t, "golden", tc.name, tc.refused, data, opt))
			if *updateGolden && tc.refused == lepton.ReasonNone {
				path := filepath.Join("testdata", "noindex-"+tc.name+".lep")
				if err := os.WriteFile(path, comp, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(comp))
				return
			}
			want := goldenFixture(t, "noindex", tc.name)
			if !bytes.Equal(comp, want) {
				t.Fatalf("golden-%s cut at its seek index diverged from noindex-%s.lep (%d vs %d bytes, first diff %d)",
					tc.name, tc.name, len(comp), len(want), firstDiff(comp, want))
			}
			back, err := lepton.Decompress(comp)
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("index-less container does not round-trip: %v", err)
			}
			checkFixtureRanges(t, "noindex", tc.name, comp, data)
		})
	}
}

// rangeOutcomes are the counters that say how a range read was served.
var rangeOutcomes = []string{"range_fast", "range_fallback_no_index", "range_fallback_unsupported"}

// checkFixtureRanges reads ranges at the start, the middle and the last
// byte of fixture comp, of the golden case name in fixture set prefix, and
// requires each to equal the slice of data and to be served the way that
// fixture set is: the indexed fast path for v1-* baseline fixtures, the
// index-less fallback for other baseline fixtures, and the unsupported
// fallback for CMYK and progressive ones.
func checkFixtureRanges(t *testing.T, prefix, name string, comp, data []byte) {
	t.Helper()
	want := "range_fallback_no_index"
	switch {
	case strings.HasPrefix(name, "progressive") || name == "cmyk":
		want = "range_fallback_unsupported"
	case prefix == "v1":
		want = "range_fast"
	}
	size := int64(len(data))
	for _, p := range [][2]int64{{0, 64}, {size / 3, 1}, {size / 2, 512}, {size - 9, 9}, {size - 1, 1}} {
		before := lepton.RangeStats()
		checkRange(t, comp, data, p[0], p[1])
		after := lepton.RangeStats()
		for _, k := range rangeOutcomes {
			moved, wantMoved := after[k]-before[k], int64(0)
			if k == want {
				wantMoved = 1
			}
			if moved != wantMoved {
				t.Errorf("%s-%s range (off=%d n=%d) moved %s by %d, want %d",
					prefix, name, p[0], p[1], k, moved, wantMoved)
			}
		}
	}
}

// progressiveSources maps each source JPEG of a stored progressive
// container to its pixel size. The restart-interval source is 4:4:4
// because image/jpeg counts restart intervals of a non-interleaved scan in
// interleaved MCUs, which misreads subsampled components.
var progressiveSources = map[string]image.Point{
	"golden-progressive.jpg":  {240, 180},
	"progressive-ri4.jpg":     {96, 64},  // restart interval 4
	"progressive-444-odd.jpg": {97, 63},  // unsubsampled chroma, odd size
	"progressive-420-odd.jpg": {100, 60}, // luma padded past its AC scans
}

// TestProgressiveFixtures pins decode-only progressive support. Every
// stored progressive container — the golden, legacy, v1 and noindex
// captures of the golden case, and one pair each for a restart interval,
// unsubsampled chroma at an odd size, and padded luma — decodes to its
// source through Decompress, DecompressToCtx and DecompressRangeCtx. Each
// source is checked as a progressive JPEG of its stated size by the
// standard library's decoder, which shares no code with this repository's.
func TestProgressiveFixtures(t *testing.T) {
	for name, size := range progressiveSources {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte{0xFF, 0xC2}) {
			t.Fatalf("%s has no SOF2 marker", name)
		}
		img, err := stdjpeg.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: image/jpeg: %v", name, err)
		}
		if got := img.Bounds().Size(); got != size {
			t.Fatalf("%s: image/jpeg decodes %v, want %v", name, got, size)
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*progressive*.lep"))
	if err != nil || len(paths) != 7 {
		t.Fatalf("want 7 progressive containers, found %d (%v)", len(paths), err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".lep")
		prefix, golden := strings.CutSuffix(name, "-progressive")
		src := name + ".jpg"
		if golden {
			src = "golden-progressive.jpg"
		}
		t.Run(name, func(t *testing.T) {
			if _, ok := progressiveSources[src]; !ok {
				t.Fatalf("source %s has no stated size", src)
			}
			comp, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join("testdata", src))
			if err != nil {
				t.Fatal(err)
			}
			back, err := lepton.Decompress(comp)
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("Decompress does not reproduce %s (err %v)", src, err)
			}
			var buf bytes.Buffer
			if err := lepton.NewCodec().DecompressToCtx(context.Background(), &buf, comp); err != nil || !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("DecompressToCtx does not reproduce %s (err %v)", src, err)
			}
			checkFixtureRanges(t, prefix, "progressive", comp, data)
		})
	}
}
