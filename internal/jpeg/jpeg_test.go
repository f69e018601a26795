package jpeg_test

import (
	"bytes"
	"slices"
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// reassemble re-creates the full file bytes from a parsed+decoded scan.
func reassemble(t *testing.T, f *jpeg.File, s *jpeg.Scan) []byte {
	t.Helper()
	scan, err := jpeg.EncodeScan(s)
	if err != nil {
		t.Fatalf("EncodeScan: %v", err)
	}
	out := append([]byte(nil), f.Header...)
	out = append(out, scan...)
	return append(out, f.Trailer...)
}

func roundTrip(t *testing.T, data []byte) {
	t.Helper()
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		t.Fatalf("DecodeScan: %v", err)
	}
	got := reassemble(t, f, s)
	if !bytes.Equal(got, data) {
		i := 0
		for i < len(got) && i < len(data) && got[i] == data[i] {
			i++
		}
		t.Fatalf("round trip differs: len %d vs %d, first diff at byte %d", len(got), len(data), i)
	}
}

func TestRoundTripBasic(t *testing.T) {
	data, err := imagegen.Generate(1, 128, 96)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, data)
}

func TestRoundTripMatrix(t *testing.T) {
	cases := []imagegen.Options{
		{Quality: 85, SubsampleChroma: false, PadBit: 1},
		{Quality: 85, SubsampleChroma: true, PadBit: 1},
		{Quality: 50, SubsampleChroma: true, PadBit: 0},
		{Quality: 95, SubsampleChroma: false, PadBit: 0},
		{Quality: 75, Grayscale: true, PadBit: 1},
		{Quality: 85, SubsampleChroma: true, RestartInterval: 4, PadBit: 1},
		{Quality: 85, SubsampleChroma: false, RestartInterval: 1, PadBit: 1},
		{Quality: 60, Grayscale: true, RestartInterval: 7, PadBit: 0},
		{Quality: 92, SubsampleChroma: true, RestartInterval: 16, PadBit: 1,
			TrailerGarbage: []byte{1, 2, 3, 0xFF, 0xD8, 0, 0, 0}},
	}
	sizes := [][2]int{{64, 64}, {136, 104}, {17, 23}, {8, 8}, {320, 200}, {7, 5}}
	for ci, opt := range cases {
		for si, sz := range sizes {
			img := imagegen.Synthesize(int64(ci*100+si), sz[0], sz[1])
			data, err := imagegen.EncodeJPEG(img, opt)
			if err != nil {
				t.Fatalf("case %d size %v: encode: %v", ci, sz, err)
			}
			roundTrip(t, data)
		}
	}
}

func TestParseRejectsProgressive(t *testing.T) {
	data, _ := imagegen.Generate(2, 64, 64)
	_, err := jpeg.Parse(imagegen.MakeProgressive(data), 0)
	if jpeg.ReasonOf(err) != jpeg.ReasonProgressive {
		t.Fatalf("reason = %v, want Progressive", jpeg.ReasonOf(err))
	}
}

func TestParseRejectsCMYK(t *testing.T) {
	_, err := jpeg.Parse(imagegen.CMYKStub(), 0)
	if jpeg.ReasonOf(err) != jpeg.ReasonCMYK {
		t.Fatalf("reason = %v, want CMYK", jpeg.ReasonOf(err))
	}
}

func TestParseRejectsNotImage(t *testing.T) {
	_, err := jpeg.Parse(imagegen.NotImage(1, 1024), 0)
	if r := jpeg.ReasonOf(err); r != jpeg.ReasonNotImage {
		t.Fatalf("reason = %v, want NotImage", r)
	}
	_, err = jpeg.Parse([]byte{0x00, 0x01, 0x02}, 0)
	if r := jpeg.ReasonOf(err); r != jpeg.ReasonNotImage {
		t.Fatalf("no SOI: reason = %v, want NotImage", r)
	}
}

func TestParseRejectsHeaderOnly(t *testing.T) {
	data, _ := imagegen.Generate(3, 64, 64)
	_, err := jpeg.Parse(imagegen.HeaderOnly(data), 0)
	if r := jpeg.ReasonOf(err); r != jpeg.ReasonUnsupported {
		t.Fatalf("reason = %v, want Unsupported", r)
	}
}

func TestParseRejectsBigChroma(t *testing.T) {
	_, err := jpeg.Parse(imagegen.BigChromaStub(), 0)
	if r := jpeg.ReasonOf(err); r != jpeg.ReasonChromaSub {
		t.Fatalf("reason = %v, want ChromaSub", r)
	}
}

func TestParseMemBudget(t *testing.T) {
	data, _ := imagegen.Generate(4, 640, 480)
	_, err := jpeg.Parse(data, 1024) // absurdly small budget
	if r := jpeg.ReasonOf(err); r != jpeg.ReasonMemDecode {
		t.Fatalf("reason = %v, want MemDecode", r)
	}
	if _, err := jpeg.Parse(data, 64<<20); err != nil {
		t.Fatalf("generous budget rejected: %v", err)
	}
}

func TestTruncatedScan(t *testing.T) {
	data, _ := imagegen.Generate(5, 256, 256)
	cut := imagegen.Truncate(data, 0.5)
	f, err := jpeg.Parse(cut, 0)
	if err != nil {
		// Truncation may land in the header; that is a valid rejection too.
		return
	}
	if _, err := jpeg.DecodeScan(f); err == nil {
		t.Fatal("expected decode error on truncated scan")
	}
}

func TestTrailerSecondImage(t *testing.T) {
	a, _ := imagegen.Generate(6, 96, 96)
	b, _ := imagegen.Generate(7, 48, 48)
	data := imagegen.AppendSecondImage(a, b)
	roundTrip(t, data)
	f, _ := jpeg.Parse(data, 0)
	if len(f.Trailer) < len(b) {
		t.Fatalf("trailer %d bytes, want >= %d", len(f.Trailer), len(b))
	}
}

// TestHandoverMidScanEncode re-encodes the suffix of the scan from several
// MCU-row starts, seeded from the recorded handover word: the output must
// be the original scan from the byte holding the start's first bit on.
func TestHandoverMidScanEncode(t *testing.T) {
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			f, s := decodeCase(t, 8, 200, 152, tc.opts)
			h := f.MCUsHigh
			for _, row := range []int{1, h / 3, h / 2, h - 1} {
				got := encodeRows(t, f, s, row, h, false)
				want := f.ScanData[s.Positions[row*f.MCUsWide].ByteOff:]
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("start row %d: suffix differs at byte %d (lens %d vs %d)", row, i, len(got), len(want))
				}
			}
		})
	}
}

// TestHandoverSplitEncode encodes the scan in k independent pieces cut at
// MCU rows and checks that they concatenate to the original scan — the
// basis of multithreaded decode. A piece whose end falls mid-byte leaves
// that byte unemitted, and the next piece, seeded with its partial bits,
// emits it in full.
func TestHandoverSplitEncode(t *testing.T) {
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			f, s := decodeCase(t, 9, 168, 168, tc.opts)
			h := f.MCUsHigh
			for _, k := range []int{2, 3, 4, 7} {
				var out []byte
				for seg := 0; seg < k; seg++ {
					if start, end := seg*h/k, (seg+1)*h/k; start < end {
						out = append(out, encodeRows(t, f, s, start, end, false)...)
					}
				}
				if !bytes.Equal(out, f.ScanData) {
					t.Fatalf("k=%d: concatenated pieces differ from original scan", k)
				}
			}
		})
	}
}

func TestZeroFillTailRejectsOrRoundTrips(t *testing.T) {
	data, _ := imagegen.Generate(10, 256, 192)
	z := imagegen.ZeroFillTail(data, 64)
	f, err := jpeg.Parse(z, 0)
	if err != nil {
		return // acceptable rejection
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		return // acceptable rejection
	}
	// If decode succeeded, re-encode must reproduce the zero-filled bytes
	// or the caller will classify it as a round-trip failure; either way it
	// must not panic and must be detectable.
	scan, err := jpeg.EncodeScan(s)
	if err != nil {
		return
	}
	got := append(append(append([]byte(nil), f.Header...), scan...), f.Trailer...)
	_ = bytes.Equal(got, z) // both outcomes acceptable; no crash is the test
}

func TestCoefficientGeometry(t *testing.T) {
	img := imagegen.Synthesize(11, 100, 60)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, SubsampleChroma: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 100x60 4:2:0 -> MCUs are 16x16: 7x4 MCUs; luma 14x8 blocks padded,
	// chroma 7x4.
	if f.MCUsWide != 7 || f.MCUsHigh != 4 {
		t.Fatalf("MCUs = %dx%d", f.MCUsWide, f.MCUsHigh)
	}
	if f.Components[0].BlocksWide != 14 || f.Components[0].BlocksHigh != 8 {
		t.Fatalf("luma blocks = %dx%d", f.Components[0].BlocksWide, f.Components[0].BlocksHigh)
	}
	if f.Components[1].BlocksWide != 7 || f.Components[1].BlocksHigh != 4 {
		t.Fatalf("chroma blocks = %dx%d", f.Components[1].BlocksWide, f.Components[1].BlocksHigh)
	}
	if f.BlocksPerMCU() != 6 {
		t.Fatalf("blocks per MCU = %d", f.BlocksPerMCU())
	}
}

func TestPadBitDetection(t *testing.T) {
	for _, pad := range []uint8{0, 1} {
		img := imagegen.Synthesize(12, 96, 64)
		data, err := imagegen.EncodeJPEG(img, imagegen.Options{
			Quality: 70, SubsampleChroma: true, RestartInterval: 3, PadBit: pad,
		})
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
		if s.PadSeen && s.PadBit != pad {
			t.Fatalf("pad bit detected as %d, want %d", s.PadBit, pad)
		}
	}
}

func TestRSTCount(t *testing.T) {
	img := imagegen.Synthesize(13, 128, 128)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{
		Quality: 80, SubsampleChroma: true, RestartInterval: 3, PadBit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := jpeg.Parse(data, 0)
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		t.Fatal(err)
	}
	// 128x128 4:2:0 -> 8x8=64 MCUs, interval 3 -> 21 markers.
	if s.RSTCount != 21 {
		t.Fatalf("RSTCount = %d, want 21", s.RSTCount)
	}
}

// TestMissingRestartMarkersRoundTrip writes scans that stop carrying
// restart markers partway, as a file whose tail was zero-filled past its
// last marker does (§A.3): the decoder stops expecting markers at the first
// missing one and resets no DC predictor after it. The scan must decode to
// the same coefficients with the shorter marker count, re-encode whole to
// its own bytes, and re-encode in pieces cut at MCU rows, before and after
// the last marker, to the same bytes.
func TestMissingRestartMarkersRoundTrip(t *testing.T) {
	for _, tc := range streamCases {
		if tc.opts.RestartInterval == 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			f, s := decodeCase(t, 14, 168, 120, tc.opts)
			for _, keep := range []int{0, 1, s.RSTCount / 2} {
				cut := *s
				cut.RSTCount = keep
				scan, err := jpeg.EncodeScan(&cut)
				if err != nil {
					t.Fatal(err)
				}
				data := append(append(append([]byte(nil), f.Header...), scan...), f.Trailer...)
				g, err := jpeg.Parse(data, 0)
				if err != nil {
					t.Fatal(err)
				}
				s2, err := jpeg.DecodeScan(g)
				if err != nil {
					t.Fatalf("keep %d markers: %v", keep, err)
				}
				if s2.RSTCount != keep {
					t.Fatalf("keep %d markers: decoded %d", keep, s2.RSTCount)
				}
				for ci := range s.Coeff {
					if !slices.Equal(s.Coeff[ci], s2.Coeff[ci]) {
						t.Fatalf("keep %d markers: component %d coefficients differ", keep, ci)
					}
				}
				if again, err := jpeg.EncodeScan(s2); err != nil || !bytes.Equal(again, g.ScanData) {
					t.Fatalf("keep %d markers: re-encode differs from the scan (%v)", keep, err)
				}
				h := g.MCUsHigh
				var out []byte
				for _, r := range [][2]int{{0, 1}, {1, h / 2}, {h / 2, h}} {
					out = append(out, encodeRows(t, g, s2, r[0], r[1], true)...)
				}
				if !bytes.Equal(out, g.ScanData) {
					t.Fatalf("keep %d markers: pieces differ from the scan", keep)
				}
			}
		})
	}
}

// TestWalkBlocksFollowsScanOrder: WalkBlocks visits as many blocks as the
// scan codes, MCU by MCU, and chains each component's DC the way the scan
// decoder did, so at a component's first block of every MCU the predictor
// it implies is the one the decoder recorded in that MCU's handover word —
// restart resets included, also once markers stop partway through the
// scan.
func TestWalkBlocksFollowsScanOrder(t *testing.T) {
	check := func(t *testing.T, s *jpeg.Scan) {
		t.Helper()
		f := s.File
		last := [jpeg.MaxComponents]int{-1, -1, -1, -1}
		n := 0
		s.WalkBlocks(func(ci int, diff int32, blk []int16) {
			m := n / f.BlocksPerMCU()
			n++
			if last[ci] == m {
				return
			}
			last[ci] = m
			if pred := int32(blk[0]) - diff; pred != int32(s.Positions[m].PrevDC[ci]) {
				t.Fatalf("RSTCount %d, MCU %d, component %d: predictor %d, decoder had %d",
					s.RSTCount, m, ci, pred, s.Positions[m].PrevDC[ci])
			}
		})
		if want := f.TotalMCUs() * f.BlocksPerMCU(); n != want {
			t.Fatalf("visited %d blocks, want %d", n, want)
		}
	}
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			f, s := decodeCase(t, 31, 168, 120, tc.opts)
			check(t, s)
			if s.RSTCount == 0 {
				return
			}
			// The same scan written with half its markers, decoded again so
			// the handover words are the decoder's for that scan.
			cut := *s
			cut.RSTCount /= 2
			scan, err := jpeg.EncodeScan(&cut)
			if err != nil {
				t.Fatal(err)
			}
			g, err := jpeg.Parse(append(append(append([]byte(nil), f.Header...), scan...), f.Trailer...), 0)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := jpeg.DecodeScan(g)
			if err != nil {
				t.Fatal(err)
			}
			check(t, s2)
		})
	}
}
