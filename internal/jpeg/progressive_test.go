package jpeg

import (
	"os"
	"path/filepath"
	"testing"
)

// progHeader returns the header of a checked-in progressive source JPEG:
// SOI through its first SOS segment, the bytes a container stores.
func progHeader(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i+3 < len(data); i++ {
		if data[i] == 0xFF && data[i+1] == mSOS {
			return data[:i+2+u16(data[i+2:])]
		}
	}
	t.Fatalf("%s: no SOS", name)
	return nil
}

func TestProgressiveHeaderOnlyParse(t *testing.T) {
	f, err := ParseProgressiveHeader(progHeader(t, "golden-progressive.jpg"))
	if err != nil {
		t.Fatalf("ParseProgressiveHeader: %v", err)
	}
	if f.Width != 240 || f.Height != 180 || len(f.Components) != 3 {
		t.Fatalf("frame = %dx%d %d comps", f.Width, f.Height, len(f.Components))
	}
}

func TestProgressiveRejectsSuccessiveApproximation(t *testing.T) {
	bad := append([]byte(nil), progHeader(t, "golden-progressive.jpg")...)
	bad[len(bad)-1] = 0x01 // the first SOS's Ah/Al byte: Al = 1
	_, err := ParseProgressiveHeader(bad)
	if ReasonOf(err) != ReasonProgressive {
		t.Fatalf("reason = %v", ReasonOf(err))
	}
}

// TestProgressiveMutationRobustness flips bits across a stored header:
// parsing must fail cleanly or succeed, never panic.
func TestProgressiveMutationRobustness(t *testing.T) {
	hdr := progHeader(t, "golden-progressive.jpg")
	for i := range hdr {
		bad := append([]byte(nil), hdr...)
		bad[i] ^= 0x40
		_, _ = ParseProgressiveHeader(bad)
	}
}

// TestProgressiveUnpaddedGeometry: a 100x60 4:2:0 frame pads luma to 14x8
// blocks, but its non-interleaved AC scans cover only the 13x8 blocks the
// image reaches (chroma 7x4), in unpadded raster order.
func TestProgressiveUnpaddedGeometry(t *testing.T) {
	f, err := ParseProgressiveHeader(progHeader(t, "progressive-420-odd.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	if bw, bh := f.Components[0].BlocksWide, f.Components[0].BlocksHigh; bw != 14 || bh != 8 {
		t.Fatalf("luma padded to %dx%d blocks, want 14x8", bw, bh)
	}
	for ci, want := range [][2]int{{13, 8}, {7, 4}, {7, 4}} {
		if w, h := unpaddedBlocks(f, ci); w != want[0] || h != want[1] {
			t.Fatalf("component %d: unpadded %dx%d, want %dx%d", ci, w, h, want[0], want[1])
		}
	}
	n, blocks := progMCUIter(f, &ProgScan{Comps: []int{0}, Sel: []byte{0}, Ss: 1, Se: 63})
	if n != 13*8 {
		t.Fatalf("luma AC scan has %d blocks, want %d", n, 13*8)
	}
	if b := blocks(13); b[0].off != 14*64 {
		t.Fatalf("block 13 of the AC scan at offset %d, want the start of padded row 1 (%d)", b[0].off, 14*64)
	}
}
