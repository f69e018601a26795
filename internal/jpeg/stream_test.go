package jpeg_test

import (
	"bytes"
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// collectSink gathers streamed rows back into whole planes so the stream
// decoder can be compared against the buffered one.
type collectSink struct {
	f      *jpeg.File
	planes [][]int16
}

func newCollectSink(f *jpeg.File) *collectSink {
	s := &collectSink{f: f}
	for i := range f.Components {
		c := &f.Components[i]
		s.planes = append(s.planes, make([]int16, c.BlocksWide*c.BlocksHigh*64))
	}
	return s
}

func (s *collectSink) GetRowBuf(ci int) []int16 {
	return make([]int16, s.f.Components[ci].BlocksWide*64)
}

func (s *collectSink) EmitRow(ci, row int, coeff []int16) error {
	w := s.f.Components[ci].BlocksWide * 64
	copy(s.planes[ci][row*w:(row+1)*w], coeff)
	return nil
}

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

// TestDecodeScanStreamMatchesBuffered checks the streaming scan decoder
// produces exactly the coefficients, positions, and scan metadata of the
// buffered decoder.
func TestDecodeScanStreamMatchesBuffered(t *testing.T) {
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			img := imagegen.Synthesize(11, 168, 120)
			data, err := imagegen.EncodeJPEG(img, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := jpeg.Parse(data, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := jpeg.DecodeScan(f)
			if err != nil {
				t.Fatal(err)
			}
			sink := newCollectSink(f)
			posAt := []int{0, f.MCUsWide * (f.MCUsHigh / 2), f.MCUsWide * (f.MCUsHigh - 1)}
			posOut := make([]jpeg.MCUPos, len(posAt))
			info, err := jpeg.DecodeScanStream(f, sink, posAt, posOut)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range want.Coeff {
				if !int16Equal(want.Coeff[ci], sink.planes[ci]) {
					t.Fatalf("component %d coefficients differ", ci)
				}
			}
			for i, m := range posAt {
				if posOut[i] != want.Positions[m] {
					t.Fatalf("position at MCU %d: %+v != %+v", m, posOut[i], want.Positions[m])
				}
			}
			if info.PadBit != want.PadBit || info.PadSeen != want.PadSeen ||
				info.RSTCount != want.RSTCount || !bytes.Equal(info.Tail, want.Tail) {
				t.Fatalf("scan info %+v differs from buffered scan", info)
			}
		})
	}
}

// feedPlanar drives a StreamScanEncoder from whole planes in the planar
// order the arithmetic model produces rows: every block row of component
// 0's range, then component 1's, and so on.
func feedPlanar(t *testing.T, se *jpeg.StreamScanEncoder, f *jpeg.File, s *jpeg.Scan, startRow, endRow int) {
	t.Helper()
	for ci := range f.Components {
		c := &f.Components[ci]
		v := c.V
		if len(f.Components) == 1 {
			v = 1
		}
		w := c.BlocksWide * 64
		for mr := startRow; mr < endRow; mr++ {
			rows := make([][]int16, 0, v)
			for k := 0; k < v; k++ {
				br := mr*v + k
				rows = append(rows, s.Coeff[ci][br*w:(br+1)*w])
			}
			if err := se.ConsumeGroup(ci, mr, rows); err != nil {
				t.Fatalf("ConsumeGroup(ci=%d, mcuRow=%d): %v", ci, mr, err)
			}
		}
	}
}

// TestStreamScanEncoderMatchesSequential re-encodes segment ranges through
// the planar row-fed encoder and checks the output is byte-identical to the
// sequential whole-plane encoder (and hence to the original scan bytes).
func TestStreamScanEncoderMatchesSequential(t *testing.T) {
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			img := imagegen.Synthesize(23, 168, 120)
			data, err := imagegen.EncodeJPEG(img, tc.opts)
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
			// Two segments split at an MCU-row boundary, like the engine.
			splitRow := f.MCUsHigh / 2
			ranges := [][2]int{
				{0, splitRow * f.MCUsWide},
				{splitRow * f.MCUsWide, f.TotalMCUs()},
			}
			var got []byte
			for i, r := range ranges {
				start, end := r[0], r[1]
				if start >= end {
					continue
				}
				var seed jpeg.MCUPos
				if start > 0 {
					seed = s.Positions[start]
				}
				// Sequential reference for this range.
				ref, err := jpeg.NewScanEncoder(f, s.PadBit, s.RSTCount)
				if err != nil {
					t.Fatal(err)
				}
				ref.Seed(seed)
				if err := ref.EncodeMCURange(s, start, end); err != nil {
					t.Fatal(err)
				}
				atEnd := end == f.TotalMCUs()
				if atEnd {
					ref.Finish(s.Tail)
				}
				// Streaming encoder fed planar rows.
				tabs, err := jpeg.NewScanTables(f)
				if err != nil {
					t.Fatal(err)
				}
				se := jpeg.NewStreamScanEncoder(tabs, s.PadBit, s.RSTCount, start, end, seed, 0, nil)
				feedPlanar(t, se, f, s, start/f.MCUsWide, (end+f.MCUsWide-1)/f.MCUsWide)
				out, err := se.Finish(s.Tail, atEnd)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, ref.Bytes()) {
					t.Fatalf("segment %d [%d,%d): streamed bytes differ from sequential (%d vs %d bytes)",
						i, start, end, len(out), len(ref.Bytes()))
				}
				got = append(got, out...)
			}
			if !bytes.Equal(got, f.ScanData) {
				t.Fatalf("concatenated segments differ from original scan (%d vs %d bytes)", len(got), len(f.ScanData))
			}
		})
	}
}

func int16Equal(a, b []int16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
