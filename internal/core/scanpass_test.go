package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

// The tests in this file hold the segmented encode to the sequential scan
// decode it replaced: each thread segment decodes its own span of the scan
// from the handover word at its first row, so it must meet the same
// coefficients, positions, scan-wide facts and refusals as one decode from
// the scan's start.

// scanInput is one input of the differential.
type scanInput struct {
	name string
	data []byte
}

// layoutInputs covers restart intervals, both pad bits, and the gray, 4:2:0
// and 4:4:4 layouts.
func layoutInputs(t testing.TB) []scanInput {
	t.Helper()
	img := imagegen.Synthesize(12, 136, 104)
	layouts := []struct {
		name string
		opt  imagegen.Options
	}{
		{"gray", imagegen.Options{Quality: 85, Grayscale: true}},
		{"420", imagegen.Options{Quality: 80, SubsampleChroma: true}},
		{"444", imagegen.Options{Quality: 75}},
	}
	var out []scanInput
	for _, l := range layouts {
		for _, ri := range []int{0, 1, 2, 4, 8, 16, 64} {
			for _, pad := range []uint8{0, 1} {
				opt := l.opt
				opt.RestartInterval, opt.PadBit = ri, pad
				data, err := imagegen.EncodeJPEG(img, opt)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, scanInput{fmt.Sprintf("%s-rst%d-pad%d", l.name, ri, pad), data})
			}
		}
	}
	return out
}

// fuzzCompressInputs returns FuzzCompress's seeds and its checked-in corpus.
func fuzzCompressInputs(t testing.TB) []scanInput {
	t.Helper()
	var out []scanInput
	for i, img := range fuzzSeedJPEGs(t) {
		out = append(out, scanInput{fmt.Sprintf("fuzz-seed-%d", i), img},
			scanInput{fmt.Sprintf("fuzz-seed-%d-progressive", i), imagegen.MakeProgressive(img)})
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCompress", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzCompress corpus: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" and one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, scanInput{"corpus-" + filepath.Base(p), []byte(data)})
	}
	return out
}

// corruptInputs covers every imagegen/corrupt.go class, scans cut short,
// and pad bits that change value at a restart marker.
func corruptInputs(t testing.TB) []scanInput {
	t.Helper()
	base := genJPEG(t, 5, 160, 120)
	img := imagegen.Synthesize(6, 160, 128)
	rst := map[uint8][]byte{}
	for _, pad := range []uint8{0, 1} {
		data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 80, SubsampleChroma: true, RestartInterval: 4, PadBit: pad})
		if err != nil {
			t.Fatal(err)
		}
		rst[pad] = data
	}
	out := []scanInput{
		{"progressive", imagegen.MakeProgressive(base)},
		{"cmyk", imagegen.CMYKStub()},
		{"oversize", imagegen.OversizeStub(1)},
		{"not-image", imagegen.NotImage(2, 3000)},
		{"header-only", imagegen.HeaderOnly(base)},
		{"second-image", imagegen.AppendSecondImage(base, genJPEG(t, 7, 64, 48))},
		{"big-chroma", imagegen.BigChromaStub()},
	}
	for _, frac := range []float64{0.2, 0.5, 0.8, 0.97} {
		out = append(out, scanInput{fmt.Sprintf("truncate-%v", frac), imagegen.Truncate(rst[1], frac)},
			scanInput{fmt.Sprintf("truncate-norst-%v", frac), imagegen.Truncate(base, frac)})
	}
	// Cut inside the scan but still terminated, so the parse passes and the
	// scan decode meets the end of the data.
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		out = append(out, scanInput{fmt.Sprintf("truncate-eoi-%v", frac), append(imagegen.Truncate(rst[1], frac), 0xFF, 0xD9)},
			scanInput{fmt.Sprintf("truncate-eoi-norst-%v", frac), append(imagegen.Truncate(base, frac), 0xFF, 0xD9)})
	}
	for _, n := range []int{16, 200, 900, 2000} {
		out = append(out, scanInput{fmt.Sprintf("zero-tail-%d", n), imagegen.ZeroFillTail(rst[1], n)})
	}
	// The two pad bits code the same scan but for their pad bits (and the
	// stuffing a padded 0xFF needs), so splicing them at a restart marker
	// gives a scan whose pad bits are 1 up to it and 0 after: each span is
	// consistent within itself, and only the pad bits seen before the late
	// span refuse the file.
	marks := func(data []byte) []int {
		var at []int
		for i := 0; i+1 < len(data); i++ {
			if data[i] == 0xFF && data[i+1] >= 0xD0 && data[i+1] <= 0xD7 {
				at = append(at, i+2)
			}
		}
		return at
	}
	m1, m0 := marks(rst[1]), marks(rst[0])
	if len(m1) != len(m0) || len(m1) < 4 {
		t.Fatalf("restart markers: %d with pad bit 1, %d with 0", len(m1), len(m0))
	}
	for k := range m1 {
		spliced := append(append([]byte(nil), rst[1][:m1[k]]...), rst[0][m0[k]:]...)
		out = append(out, scanInput{fmt.Sprintf("pad-splice-%d", k), spliced})
	}
	return out
}

// sequentialScan is the reference: one decode of the whole scan from its
// start, keeping no rows, with the handover word at every MCU-row start.
// It drives a jpeg.RowDecoder itself rather than jpeg.DecodeScan, whose
// whole planes the oversize input could not allocate (24 GB).
func sequentialScan(f *jpeg.File) ([]jpeg.MCUPos, *jpeg.StreamScanInfo, error) {
	d, err := jpeg.NewRowDecoder(f)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]jpeg.MCUPos, f.MCUsHigh)
	for r := range rows {
		rows[r] = d.Pos()
		if err := d.Decode(nil, nil); err != nil {
			return nil, nil, err
		}
	}
	info, err := d.Finish()
	return rows, info, err
}

// sameErr reports whether two refusals are the same: both nil, or the same
// Reason and message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var ja, jb *jpeg.Error
	return errors.As(a, &ja) && errors.As(b, &jb) && ja.Reason == jb.Reason && a.Error() == b.Error()
}

var diffSegments = []int{1, 2, 3, 4, 8, 16}

// TestSegmentedEncodeMatchesSequentialScan runs every input through the
// segmented encode at several segment counts on eight CPUs: whatever the
// count, an input refused by the sequential decode is refused with the same
// error, in scan order, and an accepted one yields the sequential decode's
// row positions and scan-wide facts and round-trips.
func TestSegmentedEncodeMatchesSequentialScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	inputs := append(layoutInputs(t), fuzzCompressInputs(t)...)
	inputs = append(inputs, corruptInputs(t)...)
	refusedPad := 0
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			f, perr := jpeg.ParseOpt(in.data, MemEncodeBudget, false)
			var rows []jpeg.MCUPos
			var info *jpeg.StreamScanInfo
			var serr error
			if perr == nil {
				rows, info, serr = sequentialScan(f)
				if serr != nil && strings.Contains(serr.Error(), "inconsistent pad bits") {
					refusedPad++
				}
			}
			for _, n := range diffSegments {
				// Repeat the racy runs: the error must not depend on which
				// segment's goroutine gets there first.
				for rep := 0; rep < 3; rep++ {
					cd := NewCodec()
					res, err := cd.EncodeCtx(context.Background(), in.data, EncodeOptions{ForceSegments: n})
					want := perr
					if perr == nil {
						starts := SegmentStarts(f, n, 0, f.MCUsHigh)
						if DecodeWindowBytes(f, len(starts)) > MemDecodeBudget {
							var je *jpeg.Error
							if !errors.As(err, &je) || je.Reason != jpeg.ReasonMemDecode {
								t.Fatalf("%d segments: %v, want a memory refusal", n, err)
							}
							continue
						}
						want = serr
					}
					if !sameErr(err, want) {
						t.Fatalf("%d segments, run %d: encode refused with %v, sequential decode with %v", n, rep, err, want)
					}
					if inUse, _ := coeffMem(cd); inUse != 0 {
						t.Fatalf("%d segments: %d coefficient bytes left in use", n, inUse)
					}
					if err != nil || rep > 0 {
						continue
					}
					back, err := decode(res.Compressed)
					if err != nil || !bytes.Equal(back, in.data) {
						t.Fatalf("%d segments: round trip failed: %v", n, err)
					}
					enc, err := cd.EncodeScanCtx(context.Background(), f, SegmentStarts(f, n, 0, f.MCUsHigh), nil, model.DefaultFlags(), false)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(enc.RowPos) != fmt.Sprint(rows) {
						t.Fatalf("%d segments: row positions differ from the sequential decode's", n)
					}
					if fmt.Sprint(*enc.Scan) != fmt.Sprint(*info) {
						t.Fatalf("%d segments: scan facts %+v, sequential %+v", n, *enc.Scan, *info)
					}
					enc.Release()
				}
			}
		})
	}
	if refusedPad == 0 {
		t.Fatal("no input was refused for inconsistent pad bits; the pad-bit fold went untested")
	}
}

// TestForkedSegmentsMatchSequentialScan decodes every segment of every
// accepted layout input on its own, from the handover word at its first
// row: its coefficient rows and end position must be the sequential
// decode's, and folding the pad-bit state from segment to segment in scan
// order must end in the sequential decode's scan-wide facts.
func TestForkedSegmentsMatchSequentialScan(t *testing.T) {
	for _, in := range layoutInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			f, err := jpeg.Parse(in.data, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := jpeg.DecodeScan(f)
			if err != nil {
				t.Fatal(err)
			}
			w := f.MCUsWide
			for _, n := range diffSegments {
				starts := SegmentStarts(f, n, 0, f.MCUsHigh)
				root, err := jpeg.NewRowDecoder(f)
				if err != nil {
					t.Fatal(err)
				}
				prev := root
				for k, start := range starts {
					row, endRow := start/w, f.MCUsHigh
					if k+1 < len(starts) {
						endRow = starts[k+1] / w
					}
					// The fresh fork knows no pad bits; the chained one
					// carries the previous segment's.
					fresh := root.Fork(row, want.Positions[start])
					chained := prev.Fork(row, want.Positions[start])
					for _, dec := range []*jpeg.RowDecoder{fresh, chained} {
						for r := row; r < endRow; r++ {
							if got := dec.Pos(); got != want.Positions[r*w] {
								t.Fatalf("%d segments, segment %d, row %d: position %+v, want %+v", n, k, r, got, want.Positions[r*w])
							}
							group := make([][][]int16, len(f.Components))
							for ci := range group {
								for v := 0; v < vEff(f, ci); v++ {
									group[ci] = append(group[ci], make([]int16, f.Components[ci].BlocksWide*64))
								}
							}
							if err := dec.Decode(group, nil); err != nil {
								t.Fatalf("%d segments, segment %d, row %d: %v", n, k, r, err)
							}
							for ci, g := range group {
								for v, got := range g {
									br := r*len(g) + v
									if !slices.Equal(got, want.Coeff[ci][br*len(got):(br+1)*len(got)]) {
										t.Fatalf("%d segments, segment %d: component %d block row %d differs", n, k, ci, br)
									}
								}
							}
						}
						if endRow < f.MCUsHigh && dec.Pos() != want.Positions[endRow*w] {
							t.Fatalf("%d segments, segment %d: ends at %+v, next starts at %+v", n, k, dec.Pos(), want.Positions[endRow*w])
						}
					}
					prev = chained
				}
				info, err := prev.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if info.PadBit != want.PadBit || info.PadSeen != want.PadSeen ||
					info.RSTCount != want.RSTCount || !bytes.Equal(info.Tail, want.Tail) {
					t.Fatalf("%d segments: folded scan facts %+v differ from the sequential decode's", n, *info)
				}
			}
		})
	}
}
