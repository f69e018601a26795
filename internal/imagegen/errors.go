package imagegen

import (
	"math/rand"

	"lepton/internal/jpeg"
)

// errorCorpusMix holds the §6.2 anomaly proportions observed during the
// first two months of backfill. BuildErrorCorpus reproduces each class with
// real (not simulated) file contents so the classification exercises the
// actual codec.
var errorCorpusMix = []struct {
	reason jpeg.Reason
	frac   float64
}{
	{jpeg.ReasonNone, 0.94069},
	{jpeg.ReasonProgressive, 0.03043},
	{jpeg.ReasonUnsupported, 0.01535},
	{jpeg.ReasonNotImage, 0.00801},
	{jpeg.ReasonCMYK, 0.00478},
	{jpeg.ReasonMemDecode, 0.00024},
	{jpeg.ReasonChromaSub, 0.00003},
	{jpeg.ReasonRoundtrip, 0.00001},
}

// BuildErrorCorpus generates n files with the paper's anomaly mix (each
// class gets at least one file when n is large enough to represent it).
// store.Qualify over the result gives the §6.2 exit-code table.
func BuildErrorCorpus(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	counts := make([]int, len(errorCorpusMix))
	// Largest-remainder allocation so small classes appear.
	assigned := 0
	for i, mix := range errorCorpusMix {
		c := int(mix.frac * float64(n))
		if c == 0 && mix.frac > 0 && n >= 50 && i > 0 {
			c = 1
		}
		counts[i] = c
		assigned += c
	}
	counts[0] += n - assigned

	mkValid := func() []byte {
		w := 48 + rng.Intn(160)
		h := 48 + rng.Intn(160)
		data, err := Generate(rng.Int63(), w, h)
		if err != nil {
			panic(err)
		}
		return data
	}
	for i, mix := range errorCorpusMix {
		for j := 0; j < counts[i]; j++ {
			switch mix.reason {
			case jpeg.ReasonNone:
				out = append(out, mkValid())
			case jpeg.ReasonProgressive:
				out = append(out, MakeProgressive(mkValid()))
			case jpeg.ReasonUnsupported:
				// Header-only files: "JPEG files that consist entirely of
				// a header" (§6.2).
				out = append(out, HeaderOnly(mkValid()))
			case jpeg.ReasonNotImage:
				out = append(out, NotImage(rng.Int63(), 512+rng.Intn(4096)))
			case jpeg.ReasonCMYK:
				out = append(out, CMYKStub())
			case jpeg.ReasonMemDecode:
				// Since the row-window refactor, decode memory scales with
				// image width × segments instead of pixel count — a merely
				// large image now streams within budget, so the memory
				// class is a maximal-width frame whose per-segment row
				// windows alone exceed the 24 MiB ceiling.
				out = append(out, OversizeStub(rng.Int63()))
			case jpeg.ReasonChromaSub:
				out = append(out, BigChromaStub())
			case jpeg.ReasonRoundtrip:
				// Zero-filled tails (§A.3) with restart markers so the
				// missing-RST region breaks the round trip.
				img := Synthesize(rng.Int63(), 160, 120)
				data, err := EncodeJPEG(img, Options{
					Quality: 85, SubsampleChroma: true, RestartInterval: 2, PadBit: 1,
				})
				if err != nil {
					panic(err)
				}
				out = append(out, ZeroFillTail(data, len(data)/3))
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
