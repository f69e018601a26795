package chunk_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"lepton/internal/chunk"
	"lepton/internal/core"
	"lepton/internal/imagegen"
)

// TestChunkBytesPinned pins the exact bytes of every chunk for a handful of
// generated inputs, so a change to how chunks are encoded that moves a
// single coded bit fails here, not only in the compression ratio.
// Each case also checks the shape it exists to cover.
func TestChunkBytesPinned(t *testing.T) {
	jpegOf := func(seed int64, w, h int, o imagegen.Options) []byte {
		t.Helper()
		data, err := imagegen.EncodeJPEG(imagegen.Synthesize(seed, w, h), o)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	junk := make([]byte, 1500)
	rand.New(rand.NewSource(29)).Read(junk)

	cases := []struct {
		name string
		data []byte
		opt  chunk.Options
		// minSegs is the fewest segments the first Lepton chunk must have;
		// rawMiddle asks for a raw chunk between two Lepton chunks; noIndex
		// pins the chunks cut before their seek-index sections, the
		// containers legacy encoders wrote.
		minSegs   int
		rawMiddle bool
		noIndex   bool
		want      []string
	}{
		{
			name:    "420-multi-segment",
			data:    jpegOf(1, 1400, 1000, imagegen.Options{Quality: 95, SubsampleChroma: true, PadBit: 1}),
			opt:     chunk.Options{ChunkSize: 100 << 10},
			minSegs: 2,
			want: []string{
				"60c40b31b69847dbf99f5a01c9bcbc005d0cfe3fe9438c216e2f34bd44f8b625",
				"8ea58bf3e69197051ad0d59f2f4d30adb504f2c9f827f20aa8b068a3c5448ef7",
				"46a95d0f2981c422d452eccf2de317a22d08e113699307d78194f06faa01dbc8",
				"a7dc6b8f4bf193cfdde83238e306dca7e30a5b9f9fd9a4957c35a12452f246c0",
			},
		},
		{
			name: "restart-pad0-trailer",
			data: jpegOf(2, 400, 300, imagegen.Options{Quality: 88, SubsampleChroma: true,
				RestartInterval: 3, PadBit: 0, TrailerGarbage: junk}),
			opt: chunk.Options{ChunkSize: 7 << 10},
			want: []string{
				"5f2c83ef623817d74a28a45c39d193c200b490646a856159a90982a8d57944e8",
				"3fdd8b1b4b65022ce04206eb0bffd5c0452173eca518e96aceb1abbdbcad973b",
				"8527202fc31e94223198c9ef7a91ef7e6f18bb426c51ec816b8a204bbeb358b8",
			},
		},
		{
			name: "gray",
			data: jpegOf(3, 320, 240, imagegen.Options{Quality: 80, Grayscale: true, PadBit: 1}),
			opt:  chunk.Options{ChunkSize: 6 << 10},
			want: []string{
				"ece9752f6b10e6ad2e1750d18e2afb54748f05977ccd7471d2975ea2e8051392",
				"ab44ea863a1d184a382d3b85c463940241457420c99ced6a39946fe772f0e048",
			},
		},
		{
			name: "444-odd",
			data: jpegOf(4, 301, 203, imagegen.Options{Quality: 90, PadBit: 1}),
			opt:  chunk.Options{ChunkSize: 4 << 10},
			want: []string{
				"b31592a57dcab11c97cae92407c2b798de33b6175590dc3850c388b4e6eb7a8c",
				"0d8ff9acbe66be2534bebe6e57631dda485cbc05d0258f1af2418105fcb18505",
				"d5601761d55447d6e69db15e6ac02244947df2b0d5aba3d89bda681bf3a24541",
				"246c21518e7f6e8506abff3dd33119453dfb8ecbc258a37b57575c92bbe1d272",
			},
		},
		{
			name:      "8k-raw-middle",
			data:      jpegOf(5, 4000, 64, imagegen.Options{Quality: 98, SubsampleChroma: true, PadBit: 1}),
			opt:       chunk.Options{ChunkSize: 8 << 10},
			rawMiddle: true,
			want: []string{
				"2c9f0884ba5ad57e673dc775dad74f6d2773a3f463bfc425ad2fbd515e736676",
				"9ef00f49493d79203b63688146c1a37ce12dec92e41496531088e9778a8961c0",
				"2ea3a2259ae171789367fd2cd85c7dd1051cc00a81437b7a42b8c457d52fc017",
				"0816943f6c4aca0cd6e71178e2e349e055a156542a4ffff122cc35f8aff905c4",
				"d27589de5ef9d3c229f1cbbc374a7ceeeb85673a293f6bd933edf6ea4dbef367",
				"c8fab983135feb6833fe5351d7219007c91684c15321fb99e12e9fc1d539965a",
				"50820bc679e9433a6d1645860e1c3602fa3a142406c2a020fa827e61a3d288ba",
				"e1597ee1e935c86ebbbd19de39e8c0b37c02366a31cc7142b1740d480fe65367",
				"64161b8052f7f5baa5b842e7618cf4dc8d71a14819268efa758f17cb84c91759",
				"9df7029f6b75d2e9505e9389dbee13df613d4e5180d80e77070a4401948c639b",
				"623282b59435adbfbda6d72a60291e3ca9577e715743f04ca759b8f73cb7acac",
			},
		},
		{
			name:    "no-seek-index",
			data:    jpegOf(6, 320, 240, imagegen.Options{Quality: 85, SubsampleChroma: true, PadBit: 1}),
			opt:     chunk.Options{ChunkSize: 3 << 10},
			noIndex: true,
			want: []string{
				"828f9f0e55596e4740deae5776d78eb024eb02334c3ddc118f4894cfac32762a",
				"01037c94f6ceee3f4839629a4225bc86b88f02ad68c3e72504f5af4965d5bc17",
				"0e500c98032f6ad017bf98d7258a0b3772e0912401923273ce569df6c68735cd",
				"f2111da02803d2f0d5d13f543b097aae853d96b2a3e97bede8368a771bca41f3",
			},
		},
		{
			name:    "forced-segments",
			data:    jpegOf(7, 480, 360, imagegen.Options{Quality: 85, SubsampleChroma: true, PadBit: 1}),
			opt:     chunk.Options{ChunkSize: 8 << 10, SegmentsPerChunk: 3},
			minSegs: 3,
			want: []string{
				"bd87a521ac001021977a80d59e49aa49e396ead482fe02bfb3772d1fb928345d",
				"e0cbd9c77c40a450eebdd547fdaa1160d3ef21df3ae7f79e00547d768c89375c",
				"2a4eb28d30fec719f09ecf15cefc5560e743b17757903ff095d452bdff91b64e",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Codec = core.NewCodec()
			chunks, err := compress(tc.data, opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.noIndex {
				for i := range chunks {
					chunks[i] = core.CutSeekIndex(chunks[i])
				}
			}
			if back, err := reassemble(chunks); err != nil || string(back) != string(tc.data) {
				t.Fatalf("chunks do not reassemble to the input (%v)", err)
			}
			var modes []byte
			firstSegs := 0
			for i, cb := range chunks {
				c, err := core.Unmarshal(cb)
				if err != nil {
					t.Fatalf("chunk %d: %v", i, err)
				}
				modes = append(modes, c.Mode)
				if c.Mode == core.ModeLepton {
					if firstSegs == 0 {
						firstSegs = len(c.Segments)
					}
					if tc.noIndex != (c.SeekIndex == nil) {
						t.Errorf("chunk %d: seek index present = %v", i, c.SeekIndex != nil)
					}
				}
			}
			if len(chunks) < 2 {
				t.Fatalf("%d chunks, want several", len(chunks))
			}
			if firstSegs < max(tc.minSegs, 1) {
				t.Errorf("first Lepton chunk has %d segments, want at least %d", firstSegs, max(tc.minSegs, 1))
			}
			if tc.rawMiddle && !rawBetweenLepton(modes) {
				t.Errorf("modes %v: no raw chunk between two Lepton chunks", modes)
			}
			var got []string
			for _, cb := range chunks {
				sum := sha256.Sum256(cb)
				got = append(got, hex.EncodeToString(sum[:]))
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%d chunks, want %d; hashes:\n%q", len(got), len(tc.want), got)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("chunk %d: sha256 %s, want %s", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func rawBetweenLepton(modes []byte) bool {
	for i := 1; i+1 < len(modes); i++ {
		if modes[i] != core.ModeRaw {
			continue
		}
		before, after := false, false
		for _, m := range modes[:i] {
			before = before || m == core.ModeLepton
		}
		for _, m := range modes[i+1:] {
			after = after || m == core.ModeLepton
		}
		if before && after {
			return true
		}
	}
	return false
}
