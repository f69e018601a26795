package jpeg_test

import (
	"os"
	"path/filepath"
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// TestHeaderMarkerReasons pins how the baseline parser (Parse) and the
// progressive header parser (ParseProgressiveHeader) classify each marker
// they can meet before the first scan. Each case splices bytes in right
// after SOI of a valid file of its kind; a None reason means the file
// still parses.
func TestHeaderMarkerReasons(t *testing.T) {
	base, err := imagegen.EncodeJPEG(imagegen.Synthesize(3, 48, 32), imagegen.Options{Quality: 80, SubsampleChroma: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-progressive.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	seg := func(m byte) []byte { return []byte{0xFF, m, 0x00, 0x04, 0x00, 0x00} }
	const (
		none  = jpeg.ReasonNone
		unsup = jpeg.ReasonUnsupported
		trunc = jpeg.ReasonTruncated
		progr = jpeg.ReasonProgressive
	)
	cases := []struct {
		name       string
		splice     []byte
		base, prog jpeg.Reason
	}{
		// A 4-byte frame header is too short for either parser's SOF.
		{"SOF0", seg(0xC0), trunc, unsup},
		{"SOF1", seg(0xC1), trunc, unsup},
		{"SOF2", seg(0xC2), progr, trunc},
		{"SOF3", seg(0xC3), unsup, none},
		{"SOF5", seg(0xC5), unsup, none},
		{"SOF6", seg(0xC6), unsup, none},
		{"SOF7", seg(0xC7), unsup, none},
		{"SOF9", seg(0xC9), unsup, unsup},
		{"SOFA", seg(0xCA), progr, unsup},
		{"SOFB", seg(0xCB), unsup, none},
		{"DAC", seg(0xCC), unsup, unsup},
		{"SOFD", seg(0xCD), unsup, none},
		{"SOFE", seg(0xCE), unsup, none},
		{"SOFF", seg(0xCF), unsup, none},
		{"JPG", seg(0xC8), none, none},
		{"APP1", seg(0xE1), none, none},
		{"COM", seg(0xFE), none, none},
		{"DRI", seg(0xDD), none, none},
		{"DRI-bad-length", []byte{0xFF, 0xDD, 0x00, 0x05, 0, 0, 0}, unsup, unsup},
		{"RST0", []byte{0xFF, 0xD0}, unsup, unsup},
		{"SOI", []byte{0xFF, 0xD8}, unsup, unsup},
		{"EOI", []byte{0xFF, 0xD9}, unsup, unsup},
		{"DNL", seg(0xDC), unsup, unsup},
		{"TEM", []byte{0xFF, 0x01}, none, none},
		{"fill-bytes", []byte{0xFF, 0xFF, 0xFF, 0xFE, 0x00, 0x02}, none, none},
		{"SOS-before-SOF", []byte{0xFF, 0xDA, 0x00, 0x08, 0x01, 0x01, 0x00, 0x00, 0x3F, 0x00}, unsup, unsup},
		{"garbage-after-SOI", []byte{0x12}, jpeg.ReasonNotImage, unsup},
		{"segment-overrun", []byte{0xFF, 0xE1, 0xFF, 0xF0}, trunc, trunc},
		{"segment-length-1", []byte{0xFF, 0xE1, 0x00, 0x01}, trunc, trunc},
	}
	splice := func(data, ins []byte) []byte {
		out := append([]byte(nil), data[:2]...)
		out = append(out, ins...)
		return append(out, data[2:]...)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := jpeg.Parse(splice(base, tc.splice), 0)
			if got := jpeg.ReasonOf(err); got != tc.base {
				t.Errorf("Parse: reason %v (%v), want %v", got, err, tc.base)
			}
			_, err = jpeg.ParseProgressiveHeader(splice(prog, tc.splice))
			if got := jpeg.ReasonOf(err); got != tc.prog {
				t.Errorf("ParseProgressiveHeader: reason %v (%v), want %v", got, err, tc.prog)
			}
		})
	}
	// Cut short anywhere inside the header, both parsers report truncation.
	for _, f := range []struct {
		name  string
		data  []byte
		parse func([]byte) error
	}{
		{"Parse", base, func(b []byte) error { _, err := jpeg.Parse(b, 0); return err }},
		{"ParseProgressiveHeader", prog, func(b []byte) error { _, err := jpeg.ParseProgressiveHeader(b); return err }},
	} {
		for _, n := range []int{4, 7, 20, 90} {
			if got := jpeg.ReasonOf(f.parse(f.data[:n])); got != trunc {
				t.Errorf("%s of the first %d bytes: reason %v, want %v", f.name, n, got, trunc)
			}
		}
	}
	// Each parser refuses the other's frame kind as a whole file.
	if _, err := jpeg.Parse(prog, 0); jpeg.ReasonOf(err) != progr {
		t.Errorf("Parse of a progressive file: %v", err)
	}
	if _, err := jpeg.ParseProgressiveHeader(base); jpeg.ReasonOf(err) != unsup {
		t.Errorf("ParseProgressiveHeader of a baseline file: %v", err)
	}
}
