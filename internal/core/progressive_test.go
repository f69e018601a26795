package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"lepton/internal/jpeg"
)

// craftedContainer is a named container crafted to break one rule.
type craftedContainer struct {
	name string
	comp []byte
}

// craftedProgressive returns ModeProgressive containers that each change
// one scan record of the golden progressive fixture so that it breaks a
// rule the SOS parser enforces on a real file. The fixture's first scan is
// the interleaved DC scan; its second is the first luma AC band.
func craftedProgressive(tb testing.TB) []craftedContainer {
	tb.Helper()
	golden, _ := progressiveGolden(tb)
	edits := []struct {
		name string
		edit func(scans []ProgScanMeta)
	}{
		{"ac-band-past-63", func(s []ProgScanMeta) { s[1].Se = 200 }},
		{"selector-nibble-15", func(s []ProgScanMeta) { s[0].Sel[0] = 0xF0 }},
		{"undefined-dc-table", func(s []ProgScanMeta) { s[0].Sel[0] = 0x30 }},
		{"undefined-ac-table", func(s []ProgScanMeta) { s[1].Sel[0] = 0x03 }},
		{"ac-scan-no-components", func(s []ProgScanMeta) { s[1].Comps, s[1].Sel = nil, nil }},
	}
	var out []craftedContainer
	for _, e := range edits {
		c, err := Unmarshal(golden)
		if err != nil {
			tb.Fatal(err)
		}
		if len(c.ProgScans) < 2 || c.ProgScans[0].Ss != 0 || c.ProgScans[1].Ss == 0 {
			tb.Fatal("golden progressive fixture does not start with a DC scan and an AC scan")
		}
		e.edit(c.ProgScans)
		b, err := c.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, craftedContainer{e.name, b})
	}
	return out
}

// TestProgressiveCraftedScansRejected feeds scan records that no parsed
// SOS header could produce: each must fail as a malformed container
// through the full and the range decoder, never index past a table.
func TestProgressiveCraftedScansRejected(t *testing.T) {
	for _, tc := range craftedProgressive(t) {
		t.Run(tc.name, func(t *testing.T) {
			cd := NewCodec()
			ctx := context.Background()
			if _, err := cd.DecodeCtx(ctx, tc.comp); !errors.Is(err, ErrBadContainer) {
				t.Fatalf("DecodeCtx: err = %v, want ErrBadContainer", err)
			}
			var buf bytes.Buffer
			if _, err := cd.DecodeRangeToCtx(ctx, &buf, tc.comp, 100, 1000); !errors.Is(err, ErrBadContainer) {
				t.Fatalf("DecodeRangeToCtx: err = %v, want ErrBadContainer", err)
			}
		})
	}
}

// TestProgressiveContainerCorruption flips bytes across, and truncates,
// the golden progressive container: every outcome is an error or some
// output, never a panic, and no truncation decodes.
func TestProgressiveContainerCorruption(t *testing.T) {
	comp, _ := progressiveGolden(t)
	for i := 30; i < len(comp); i += 37 {
		bad := append([]byte(nil), comp...)
		bad[i] ^= 0x80
		_, _ = decode(bad)
	}
	for _, n := range []int{10, 50, len(comp) / 2} {
		if _, err := decode(comp[:n]); err == nil {
			t.Fatalf("truncated progressive container at %d decoded", n)
		}
	}
}

// progressiveGolden returns the golden progressive container and the
// source JPEG it was written from.
func progressiveGolden(tb testing.TB) (comp, src []byte) {
	tb.Helper()
	comp, err := os.ReadFile(fixturePath("golden-progressive.lep"))
	if err != nil {
		tb.Fatal(err)
	}
	if src, err = os.ReadFile(fixturePath("golden-progressive.jpg")); err != nil {
		tb.Fatal(err)
	}
	return comp, src
}

// TestProgressiveContainerRoundTrip: a stored progressive container
// decodes to its source through the buffered and the streamed decoder of
// one reused codec, and VerifyCtx accepts exactly those bytes.
func TestProgressiveContainerRoundTrip(t *testing.T) {
	comp, src := progressiveGolden(t)
	cd := NewCodec()
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		got, err := cd.DecodeCtx(ctx, comp)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("round %d: DecodeCtx does not reproduce the source (err %v)", round, err)
		}
		var buf bytes.Buffer
		if err := cd.DecodeToCtx(ctx, &buf, comp); err != nil || !bytes.Equal(buf.Bytes(), src) {
			t.Fatalf("round %d: DecodeToCtx does not reproduce the source (err %v)", round, err)
		}
	}
	if err := cd.VerifyCtx(ctx, comp, src); err != nil {
		t.Fatalf("VerifyCtx: %v", err)
	}
	bad := append([]byte(nil), src...)
	bad[len(bad)/2] ^= 1
	if cd.VerifyCtx(ctx, comp, bad) == nil {
		t.Fatal("VerifyCtx accepted a changed byte")
	}
}

// TestProgressiveRejectedByDefault: compression refuses a progressive JPEG
// with ReasonProgressive, as production did (§6.2); no option admits one.
func TestProgressiveRejectedByDefault(t *testing.T) {
	_, src := progressiveGolden(t)
	for _, opt := range []EncodeOptions{{}, {AllowCMYK: true, VerifyRoundtrip: true}} {
		if _, err := encode(src, opt); jpeg.ReasonOf(err) != jpeg.ReasonProgressive {
			t.Fatalf("options %+v: reason = %v, want Progressive", opt, jpeg.ReasonOf(err))
		}
	}
}

// TestProgressiveMemBudget: a progressive container is decoded whole, so
// one whose stored frame has coefficient planes over the decode budget is
// refused up front, by the full decode and by a range read alike. The
// golden container's SOF2 is patched to 4096×4096.
func TestProgressiveMemBudget(t *testing.T) {
	comp, _ := progressiveGolden(t)
	c, err := Unmarshal(comp)
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(nil), c.JPEGHeader...)
	sof := bytes.Index(hdr, []byte{0xFF, 0xC2})
	if sof < 0 {
		t.Fatal("no SOF2 in the stored header")
	}
	copy(hdr[sof+5:], []byte{0x10, 0x00, 0x10, 0x00}) // height, width
	c.JPEGHeader = hdr
	f, err := jpeg.ParseProgressiveHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if pb := int64(f.CoefficientCount()) * 2; pb <= MemDecodeBudget {
		t.Fatalf("patched planes %d bytes fit the %d budget", pb, MemDecodeBudget)
	}
	big, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(big); jpeg.ReasonOf(err) != jpeg.ReasonMemDecode {
		t.Fatalf("decode: reason = %v (%v), want MemDecode", jpeg.ReasonOf(err), err)
	}
	if _, err := decodeRange(big, 0, 10); jpeg.ReasonOf(err) != jpeg.ReasonMemDecode {
		t.Fatalf("range decode: reason = %v (%v), want MemDecode", jpeg.ReasonOf(err), err)
	}
}
