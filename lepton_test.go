package lepton_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"lepton"
	"lepton/internal/imagegen"
)

func gen(t testing.TB, seed int64, w, h int) []byte {
	t.Helper()
	data, err := imagegen.Generate(seed, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPublicCompressDecompress(t *testing.T) {
	data := gen(t, 1, 320, 240)
	res, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lepton.IsCompressed(res.Compressed) {
		t.Fatal("missing magic")
	}
	back, err := lepton.Decompress(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestPublicOptions(t *testing.T) {
	data := gen(t, 2, 400, 300)
	res, err := lepton.Compress(data, &lepton.Options{Threads: 4, Verify: true, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 4 {
		t.Fatalf("threads = %d", res.Threads)
	}
	var bits float64
	for _, b := range res.ClassBits {
		bits += b
	}
	if bits == 0 {
		t.Fatal("stats not collected")
	}
}

func TestPublicStreaming(t *testing.T) {
	data := gen(t, 3, 256, 256)
	res, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lepton.NewCodec().DecompressToCtx(context.Background(), &buf, res.Compressed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("streamed decompress mismatch")
	}
}

func TestPublicChunks(t *testing.T) {
	data := gen(t, 4, 512, 384)
	codec := lepton.NewCodec()
	ctx := context.Background()
	chunks, err := codec.CompressChunksCtx(ctx, data, &lepton.ChunkOptions{ChunkSize: 8 << 10, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.ReassembleChunksCtx(ctx, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("chunk reassembly mismatch")
	}
	// One chunk alone.
	one, err := lepton.Decompress(chunks[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, data[8<<10:16<<10]) {
		t.Fatal("independent chunk mismatch")
	}
}

func TestPublicVerify(t *testing.T) {
	data := gen(t, 5, 128, 128)
	if err := lepton.NewCodec().VerifyCtx(context.Background(), data, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRejection(t *testing.T) {
	_, err := lepton.Compress(imagegen.MakeProgressive(gen(t, 6, 64, 64)), nil)
	if lepton.ReasonOf(err) != lepton.ReasonProgressive {
		t.Fatalf("reason = %v", lepton.ReasonOf(err))
	}
	if lepton.ReasonOf(nil) != lepton.ReasonNone {
		t.Fatal("nil must map to ReasonNone")
	}
}

func TestPublicAblations(t *testing.T) {
	data := gen(t, 7, 256, 192)
	full, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := lepton.Compress(data, &lepton.Options{DisableEdgePrediction: true, DisableDCGradient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Compressed) <= len(full.Compressed) {
		t.Fatalf("ablated model (%d) not worse than full (%d)",
			len(abl.Compressed), len(full.Compressed))
	}
	back, err := lepton.Decompress(abl.Compressed)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatal("ablated stream must still round trip")
	}
}

// TestPublicProgressive: a spectral-selection progressive JPEG, which an
// opt-in once compressed, is refused with ReasonProgressive whatever the
// options, as production refused it (§6.2). TestProgressiveFixtures
// decodes the containers written while it was not.
func TestPublicProgressive(t *testing.T) {
	prog, err := os.ReadFile(filepath.Join("testdata", "golden-progressive.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []*lepton.Options{nil, {AllowCMYK: true, Verify: true}} {
		if _, err := lepton.Compress(prog, opt); lepton.ReasonOf(err) != lepton.ReasonProgressive {
			t.Fatalf("options %+v: reason = %v", opt, lepton.ReasonOf(err))
		}
	}
}

func TestPublicCMYK(t *testing.T) {
	img := imagegen.Synthesize(9, 120, 90)
	cmyk, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, CMYK: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lepton.Compress(cmyk, nil); lepton.ReasonOf(err) != lepton.ReasonCMYK {
		t.Fatalf("CMYK accepted by default: %v", err)
	}
	res, err := lepton.Compress(cmyk, &lepton.Options{AllowCMYK: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := lepton.Decompress(res.Compressed)
	if err != nil || !bytes.Equal(back, cmyk) {
		t.Fatal("CMYK public round trip failed")
	}
}

func TestPublicCodecReuse(t *testing.T) {
	// One codec across many files: outputs must match the package-level
	// (default-codec) path byte for byte, and reuse must never leak state
	// between conversions.
	codec := lepton.NewCodec()
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for seed := int64(11); seed <= 14; seed++ {
			data := gen(t, seed, 200+int(seed)*8, 160)
			want, err := lepton.Compress(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := codec.CompressCtx(ctx, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Compressed, want.Compressed) {
				t.Fatalf("seed %d: codec output differs from package-level path", seed)
			}
			back, err := codec.DecompressCtx(ctx, got.Compressed)
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("seed %d: codec round trip failed (%v)", seed, err)
			}
		}
	}
}

func TestPublicCompressChunksFrom(t *testing.T) {
	codec := lepton.NewCodec()
	ctx := context.Background()
	data := gen(t, 22, 512, 384)
	want, err := codec.CompressChunksCtx(ctx, data, &lepton.ChunkOptions{ChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	err = codec.CompressChunksFromCtx(ctx, bytes.NewReader(data),
		&lepton.ChunkOptions{ChunkSize: 32 << 10},
		func(c []byte) error {
			got = append(got, c)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("chunk counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d differs between streaming and in-memory paths", i)
		}
	}
	back, err := codec.ReassembleChunksCtx(ctx, got)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("reassembly failed (%v)", err)
	}
}
