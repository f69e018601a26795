package core_test

import (
	"bytes"
	"testing"

	"lepton/internal/core"
	"lepton/internal/huffman"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// progFile wraps a synthetic image as a spectral-selection progressive
// JPEG.
func progFile(t testing.TB, seed int64, w, h int, ri int) []byte {
	t.Helper()
	img := imagegen.Synthesize(seed, w, h)
	base, err := imagegen.EncodeJPEG(img, imagegen.Options{
		Quality: 85, SubsampleChroma: true, PadBit: 1, RestartInterval: ri,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		t.Fatal(err)
	}
	spec := &jpeg.ProgressiveSpec{}
	spec.Width, spec.Height = f.Width, f.Height
	for _, c := range f.Components {
		spec.Components = append(spec.Components, jpeg.Component{ID: c.ID, H: c.H, V: c.V, TQ: c.TQ})
	}
	spec.Quant = f.Quant
	spec.DC = [4]*huffman.Spec{&huffman.StdDCLuminance, &huffman.StdDCChrominance}
	spec.AC = [4]*huffman.Spec{&huffman.StdACLuminance, &huffman.StdACChrominance}
	spec.RestartInterval = ri
	spec.PadBit = 1
	data, err := jpeg.WriteProgressive(spec, s.Coeff)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestProgressiveContainerRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		w, h int
		ri   int
	}{
		{1, 160, 120, 0},
		{2, 320, 240, 0},
		{3, 96, 64, 4},
	} {
		data := progFile(t, tc.seed, tc.w, tc.h, tc.ri)
		res, err := encode(data, core.EncodeOptions{AllowProgressive: true, VerifyRoundtrip: true})
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		back, err := decode(res.Compressed, 0)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", tc.seed, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("seed %d: progressive container round trip mismatch", tc.seed)
		}
		if len(res.Compressed) >= len(data) {
			t.Fatalf("seed %d: no savings on progressive: %d >= %d",
				tc.seed, len(res.Compressed), len(data))
		}
		t.Logf("seed %d: %d -> %d (%.1f%% savings)", tc.seed, len(data), len(res.Compressed),
			100*(1-float64(len(res.Compressed))/float64(len(data))))
	}
}

func TestProgressiveRejectedByDefault(t *testing.T) {
	data := progFile(t, 4, 96, 96, 0)
	_, err := encode(data, core.EncodeOptions{})
	if jpeg.ReasonOf(err) != jpeg.ReasonProgressive {
		t.Fatalf("reason = %v, want Progressive (production default)", jpeg.ReasonOf(err))
	}
}

func TestProgressiveContainerCorruption(t *testing.T) {
	data := progFile(t, 5, 128, 96, 0)
	res, err := encode(data, core.EncodeOptions{AllowProgressive: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 30; i < len(res.Compressed); i += 37 {
		bad := append([]byte(nil), res.Compressed...)
		bad[i] ^= 0x80
		_, _ = decode(bad, 0) // classified error or garbage; no panic
	}
	for _, n := range []int{10, 50, len(res.Compressed) / 2} {
		if _, err := decode(res.Compressed[:n], 0); err == nil {
			t.Fatalf("truncated progressive container at %d decoded", n)
		}
	}
}

func TestProgressiveMemBudget(t *testing.T) {
	data := progFile(t, 6, 256, 192, 0)
	_, err := encode(data, core.EncodeOptions{AllowProgressive: true, MemDecodeBudget: 1024})
	if jpeg.ReasonOf(err) != jpeg.ReasonMemDecode {
		t.Fatalf("reason = %v", jpeg.ReasonOf(err))
	}
}
