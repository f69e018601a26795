package jpeg_test

import (
	"bytes"
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

func benchFile(b *testing.B) []byte {
	b.Helper()
	data, err := imagegen.Generate(1, 800, 600)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkParse(b *testing.B) {
	data := benchFile(b)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.Parse(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeScan(b *testing.B) {
	data := benchFile(b)
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(f.ScanData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.DecodeScan(f); err != nil {
			b.Fatal(err)
		}
	}
}

// scanBenchCases are the layouts of the scan re-encode benchmarks, each a
// 1600×1200 synthetic photo.
var scanBenchCases = []struct {
	name string
	opts imagegen.Options
}{
	{"color420", imagegen.Options{Quality: 88, SubsampleChroma: true, PadBit: 1}},
	{"gray", imagegen.Options{Quality: 88, Grayscale: true, PadBit: 1}},
}

// benchScan parses and decodes one scanBenchCases layout.
func benchScan(b *testing.B, opts imagegen.Options) (*jpeg.File, *jpeg.Scan) {
	b.Helper()
	data, err := imagegen.EncodeJPEG(imagegen.Synthesize(7, 1600, 1200), opts)
	if err != nil {
		b.Fatal(err)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		b.Fatal(err)
	}
	return f, s
}

// BenchmarkEncodeScan times the whole-scan re-encode from coefficient
// planes that the Figure 1–3 comparators and the image generator run. The
// bytes are checked against the original scan once before timing.
func BenchmarkEncodeScan(b *testing.B) {
	for _, bc := range scanBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			f, s := benchScan(b, bc.opts)
			out, err := jpeg.EncodeScan(s)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(out, f.ScanData) {
				b.Fatal("re-encoded scan differs from the original")
			}
			b.SetBytes(int64(len(f.ScanData)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := jpeg.EncodeScan(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamScanEncoder times the scan re-encode every decompress
// runs: one StreamScanEncoder over the whole scan, fed each component's
// block rows in MCU-row order through ConsumeGroup, then Finish, with
// pooled queue buffers. Each iteration is one conversion: it builds the
// Huffman encoders and sizes the output from the scan length, as a decode
// does from its container. The bytes are checked against the original scan
// once before timing.
func BenchmarkStreamScanEncoder(b *testing.B) {
	for _, bc := range scanBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			f, s := benchScan(b, bc.opts)
			groups := make([][][][]int16, f.MCUsHigh) // [mcuRow][ci] -> block rows
			for mr := range groups {
				for ci := range f.Components {
					c := &f.Components[ci]
					v := c.V
					if len(f.Components) == 1 {
						v = 1
					}
					w := c.BlocksWide * 64
					var rows [][]int16
					for k := 0; k < v; k++ {
						br := mr*v + k
						rows = append(rows, s.Coeff[ci][br*w:(br+1)*w])
					}
					groups[mr] = append(groups[mr], rows)
				}
			}
			var bufs jpeg.StreamEncBuffers
			encode := func() []byte {
				tabs, err := jpeg.NewScanTables(f)
				if err != nil {
					b.Fatal(err)
				}
				se := jpeg.NewStreamScanEncoder(tabs, s.PadBit, s.RSTCount, 0, f.TotalMCUs(), jpeg.MCUPos{}, len(f.ScanData), &bufs)
				for mr, g := range groups {
					for ci, rows := range g {
						if err := se.ConsumeGroup(ci, mr, rows); err != nil {
							b.Fatal(err)
						}
					}
				}
				out := se.Finish(s.Tail, true)
				se.ReleaseBuffers(&bufs)
				return out
			}
			if !bytes.Equal(encode(), f.ScanData) {
				b.Fatal("re-encoded scan differs from the original")
			}
			b.SetBytes(int64(len(f.ScanData)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encode()
			}
		})
	}
}
