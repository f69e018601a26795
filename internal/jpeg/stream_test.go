package jpeg_test

import (
	"bytes"
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

var streamCases = []struct {
	name string
	opts imagegen.Options
}{
	{"gray", imagegen.Options{Quality: 85, Grayscale: true, PadBit: 1}},
	{"color444", imagegen.Options{Quality: 85, PadBit: 1}},
	{"color420", imagegen.Options{Quality: 85, SubsampleChroma: true, PadBit: 0}},
	{"color420-rst", imagegen.Options{Quality: 85, SubsampleChroma: true, RestartInterval: 3, PadBit: 1}},
	{"color444-rst", imagegen.Options{Quality: 75, RestartInterval: 7, PadBit: 0}},
}

// decodeCase builds a w×h synthetic image in the given layout and decodes
// its scan.
func decodeCase(t *testing.T, seed int64, w, h int, opts imagegen.Options) (*jpeg.File, *jpeg.Scan) {
	t.Helper()
	data, err := imagegen.EncodeJPEG(imagegen.Synthesize(seed, w, h), opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, s
}

// rowGroup returns component ci's block rows of MCU row mr, as a decode
// unit hands them to ConsumeGroup.
func rowGroup(f *jpeg.File, s *jpeg.Scan, ci, mr int) [][]int16 {
	v := f.Components[ci].V
	if len(f.Components) == 1 {
		v = 1
	}
	w := f.Components[ci].BlocksWide * 64
	var rows [][]int16
	for br := mr * v; br < (mr+1)*v; br++ {
		rows = append(rows, s.Coeff[ci][br*w:(br+1)*w])
	}
	return rows
}

// encodeRows re-encodes MCU rows [startRow, endRow) of s with one
// StreamScanEncoder seeded from the handover word at startRow. It feeds
// the rows in MCU-row order, or, when planar is set, in the order the
// planar model produces them: every row of component 0, then component
// 1's, and so on.
func encodeRows(t *testing.T, f *jpeg.File, s *jpeg.Scan, startRow, endRow int, planar bool) []byte {
	t.Helper()
	tabs, err := jpeg.NewScanTables(f)
	if err != nil {
		t.Fatal(err)
	}
	start, end := startRow*f.MCUsWide, endRow*f.MCUsWide
	se := jpeg.NewStreamScanEncoder(tabs, s.PadBit, s.RSTCount, start, end, s.Positions[start], 0, nil)
	consume := func(ci, mr int) {
		if err := se.ConsumeGroup(ci, mr, rowGroup(f, s, ci, mr)); err != nil {
			t.Fatalf("ConsumeGroup(ci=%d, mcuRow=%d): %v", ci, mr, err)
		}
	}
	if planar {
		for ci := range f.Components {
			for mr := startRow; mr < endRow; mr++ {
				consume(ci, mr)
			}
		}
	} else {
		for mr := startRow; mr < endRow; mr++ {
			for ci := range f.Components {
				consume(ci, mr)
			}
		}
	}
	return se.Finish(s.Tail, end == f.TotalMCUs())
}

// scanSpan returns the original scan bytes that MCU rows [startRow, endRow)
// regenerate: from the byte holding the range's first bit up to the byte
// holding the next range's first bit, or to the end of the scan. A restart
// marker between the ranges belongs to the first.
func scanSpan(f *jpeg.File, s *jpeg.Scan, startRow, endRow int) []byte {
	from := s.Positions[startRow*f.MCUsWide].ByteOff
	if endRow == f.MCUsHigh {
		return f.ScanData[from:]
	}
	return f.ScanData[from:s.Positions[endRow*f.MCUsWide].ByteOff]
}

// TestStreamScanEncoderMatchesSequential re-encodes two segments split at
// an MCU-row boundary, like the engine's, through the planar row feed: each
// must regenerate exactly its span of the original scan bytes, and the two
// must concatenate to the whole scan.
func TestStreamScanEncoderMatchesSequential(t *testing.T) {
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			f, s := decodeCase(t, 23, 168, 120, tc.opts)
			split := []int{0, f.MCUsHigh / 2, f.MCUsHigh}
			var got []byte
			for i := 0; i+1 < len(split); i++ {
				out := encodeRows(t, f, s, split[i], split[i+1], true)
				if want := scanSpan(f, s, split[i], split[i+1]); !bytes.Equal(out, want) {
					t.Fatalf("segment %d, rows [%d,%d): streamed bytes differ from the original span (%d vs %d bytes)",
						i, split[i], split[i+1], len(out), len(want))
				}
				got = append(got, out...)
			}
			if !bytes.Equal(got, f.ScanData) {
				t.Fatalf("concatenated segments differ from original scan (%d vs %d bytes)", len(got), len(f.ScanData))
			}
		})
	}
}
