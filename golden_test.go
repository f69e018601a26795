package lepton_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lepton"
)

// updateGolden regenerates the golden-bitstream (golden-*) and no-index
// (noindex-*) fixtures instead of checking against them. Only run it
// deliberately: a changed fixture means the coder produces a different
// stream, which breaks decodability of already-stored files (paper §5.2
// determinism) unless the container version changes with it.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden bitstream fixtures")

// goldenCases pins the exact compressed bytes for a spread of deterministic
// inputs: a multi-segment color image, a small single-segment image, a
// grayscale image, and the optional progressive and CMYK paths production
// kept disabled. Any coder or model change that silently alters the stream
// format fails this test loudly.
var goldenCases = []struct {
	name string
	seed int64
	w, h int
}{
	{"color-multiseg", 7, 640, 480},
	{"color-small", 3, 96, 64},
	{"gray", 11, 200, 150},
	{"progressive", 17, 240, 180},
	{"cmyk", 19, 176, 144},
}

// TestGoldenBitstream asserts that compression output, with and without
// CollectStats, is byte-identical to the checked-in fixtures, last
// regenerated when the container moved to MCU-row segment order (version
// 0x02), so any refactor that alters the stream fails loudly.
func TestGoldenBitstream(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			data, opt := goldenInput(t, tc.name, tc.seed, tc.w, tc.h)
			res, err := lepton.Compress(data, opt)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden-%s.lep", tc.name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, res.Compressed, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(res.Compressed))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(res.Compressed, want) {
				t.Fatalf("%s: compressed output diverged from golden fixture: got %d bytes, want %d bytes (first diff at %d)",
					tc.name, len(res.Compressed), len(want), firstDiff(res.Compressed, want))
			}
			// Collecting the Figure-4 statistics must not change a byte.
			withStats := *opt
			withStats.CollectStats = true
			if res, err = lepton.Compress(data, &withStats); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Compressed, want) {
				t.Fatalf("%s: CollectStats output diverged from golden fixture (first diff at %d)",
					tc.name, firstDiff(res.Compressed, want))
			}
			// The fixture must still round-trip to the original input.
			back, err := lepton.Decompress(want)
			if err != nil {
				t.Fatalf("fixture decompress: %v", err)
			}
			if !bytes.Equal(back, data) {
				t.Fatal("fixture does not decompress to the original JPEG")
			}
		})
	}
}

// TestGoldenSizeMatchesPlanar pins why the MCU-row segment order costs no
// compression: no model context crosses components, so every component's
// bits see the same probabilities as in planar order and only their place
// in the stream moves. Each golden case must stay within 2 bytes per
// thread segment of its planar v1-* fixture.
func TestGoldenSizeMatchesPlanar(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			data, opt := goldenInput(t, tc.name, tc.seed, tc.w, tc.h)
			res, err := lepton.Compress(data, opt)
			if err != nil {
				t.Fatal(err)
			}
			v1, err := os.ReadFile(filepath.Join("testdata", "v1-"+tc.name+".lep"))
			if err != nil {
				t.Fatal(err)
			}
			diff := len(res.Compressed) - len(v1)
			if diff < 0 {
				diff = -diff
			}
			if diff > 2*res.Threads {
				t.Fatalf("MCU-row container is %d bytes, planar v1 fixture %d: differ by %d > 2 per segment (%d segments)",
					len(res.Compressed), len(v1), diff, res.Threads)
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
