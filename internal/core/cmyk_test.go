package core_test

import (
	"bytes"
	"testing"

	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

func cmykFile(t testing.TB, seed int64, w, h, ri int) []byte {
	t.Helper()
	img := imagegen.Synthesize(seed, w, h)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{
		Quality: 85, CMYK: true, PadBit: 1, RestartInterval: ri,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCMYKRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		w, h int
		ri   int
	}{
		{1, 120, 96, 0},
		{2, 256, 192, 0},
		{3, 64, 64, 3},
	} {
		data := cmykFile(t, tc.seed, tc.w, tc.h, tc.ri)
		res, err := encode(data, core.EncodeOptions{AllowCMYK: true, VerifyRoundtrip: true})
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		back, err := decode(res.Compressed)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", tc.seed, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("seed %d: CMYK round trip mismatch", tc.seed)
		}
		if len(res.Compressed) >= len(data) {
			t.Fatalf("seed %d: no savings on CMYK", tc.seed)
		}
		t.Logf("seed %d: %d -> %d (%.1f%%)", tc.seed, len(data), len(res.Compressed),
			100*(1-float64(len(res.Compressed))/float64(len(data))))
	}
}

func TestCMYKRejectedByDefault(t *testing.T) {
	data := cmykFile(t, 4, 64, 64, 0)
	_, err := encode(data, core.EncodeOptions{})
	if jpeg.ReasonOf(err) != jpeg.ReasonCMYK {
		t.Fatalf("reason = %v, want CMYK (production default)", jpeg.ReasonOf(err))
	}
}

func TestCMYKMultiSegment(t *testing.T) {
	data := cmykFile(t, 5, 320, 256, 0)
	res, err := encode(data, core.EncodeOptions{AllowCMYK: true, ForceSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 4 {
		t.Fatalf("segments = %d", res.Segments)
	}
	back, err := decode(res.Compressed)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("multi-segment CMYK round trip failed: %v", err)
	}
}
