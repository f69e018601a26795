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
// grayscale image, and the optional CMYK path production kept disabled.
// Any coder or model change that silently alters the stream format fails
// this test loudly. A case with a refused reason is decode-only: the
// encoder now refuses its input with that reason, and its fixtures, written
// while it did not, must still decode.
var goldenCases = []struct {
	name    string
	seed    int64
	w, h    int
	refused lepton.Reason
}{
	{"color-multiseg", 7, 640, 480, lepton.ReasonNone},
	{"color-small", 3, 96, 64, lepton.ReasonNone},
	{"gray", 11, 200, 150, lepton.ReasonNone},
	{"progressive", 17, 240, 180, lepton.ReasonProgressive},
	{"cmyk", 19, 176, 144, lepton.ReasonNone},
}

// goldenFixture reads the checked-in container testdata/<prefix>-<name>.lep.
func goldenFixture(t *testing.T, prefix, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", prefix+"-"+name+".lep"))
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	return b
}

// goldenCompressed returns golden case name's container under opt: the
// encoder's output or, for a decode-only case, once the encoder has
// refused the input with the case's reason, the prefix-* fixture.
func goldenCompressed(t *testing.T, prefix, name string, refused lepton.Reason, data []byte, opt *lepton.Options) []byte {
	t.Helper()
	res, err := lepton.Compress(data, opt)
	if refused != lepton.ReasonNone {
		if lepton.ReasonOf(err) != refused {
			t.Fatalf("%s: Compress reason = %v (err %v), want %v", name, lepton.ReasonOf(err), err, refused)
		}
		return goldenFixture(t, prefix, name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Compressed
}

// TestGoldenBitstream asserts that compression output, with and without
// CollectStats, is byte-identical to the checked-in fixtures, last
// regenerated when the container moved to MCU-row segment order (version
// 0x02), so any refactor that alters the stream fails loudly.
func TestGoldenBitstream(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			data, opt := goldenInput(t, tc.name, tc.seed, tc.w, tc.h)
			comp := goldenCompressed(t, "golden", tc.name, tc.refused, data, opt)
			if tc.refused != lepton.ReasonNone {
				back, err := lepton.Decompress(comp)
				if err != nil || !bytes.Equal(back, data) {
					t.Fatalf("decode-only fixture does not decompress to the original JPEG (err %v)", err)
				}
				return
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden-%s.lep", tc.name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, comp, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(comp))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(comp, want) {
				t.Fatalf("%s: compressed output diverged from golden fixture: got %d bytes, want %d bytes (first diff at %d)",
					tc.name, len(comp), len(want), firstDiff(comp, want))
			}
			// Collecting the Figure-4 statistics must not change a byte.
			withStats := *opt
			withStats.CollectStats = true
			res, err := lepton.Compress(data, &withStats)
			if err != nil {
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
// thread segment of its planar v1-* fixture. Decode-only cases are left
// out: this is a property of the encoder.
func TestGoldenSizeMatchesPlanar(t *testing.T) {
	for _, tc := range goldenCases {
		if tc.refused != lepton.ReasonNone {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			data, opt := goldenInput(t, tc.name, tc.seed, tc.w, tc.h)
			res, err := lepton.Compress(data, opt)
			if err != nil {
				t.Fatal(err)
			}
			v1 := goldenFixture(t, "v1", tc.name)
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
