package baseline_test

import (
	"bytes"
	"context"
	"testing"

	"lepton/internal/baseline"
	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

func gen(t testing.TB, seed int64, w, h int) []byte {
	t.Helper()
	data, err := imagegen.Generate(seed, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFilePreservingCodecsRoundTrip(t *testing.T) {
	data := gen(t, 1, 256, 192)
	codecs := []baseline.Codec{
		baseline.Flate{Level: 1},
		baseline.Flate{Level: 6},
		baseline.Flate{Level: 9},
		baseline.RC1{},
		baseline.Lepton{},
		baseline.Lepton1Way{},
		baseline.PackJPGStyle{},
		baseline.SpecArith{},
	}
	for _, c := range codecs {
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatalf("%s: compress: %v", c.Name(), err)
		}
		back, err := c.Decompress(comp)
		if err != nil {
			t.Fatalf("%s: decompress: %v", c.Name(), err)
		}
		if !c.FilePreserving() {
			continue
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%s: round trip mismatch", c.Name())
		}
		t.Logf("%-14s %6d -> %6d (%.1f%% savings)", c.Name(), len(data), len(comp),
			100*(1-float64(len(comp))/float64(len(data))))
	}
}

func TestCompressionOrdering(t *testing.T) {
	// The paper's Figure 2 ordering: generic codecs ~1%, specarith in
	// between, Lepton best-in-class; PackJPG-style close to Lepton.
	data := gen(t, 2, 512, 384)
	size := func(c baseline.Codec) int {
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		return len(comp)
	}
	flate := size(baseline.Flate{Level: 9})
	rc1 := size(baseline.RC1{})
	spec := size(baseline.SpecArith{})
	lep := size(baseline.Lepton{})
	lep1 := size(baseline.Lepton1Way{})

	// Generic codecs achieve almost nothing on JPEG (<5% here; ~1% in the
	// paper on real photos).
	if float64(flate) < 0.90*float64(len(data)) {
		t.Errorf("deflate suspiciously good on JPEG: %d of %d", flate, len(data))
	}
	if float64(rc1) < 0.85*float64(len(data)) {
		t.Errorf("rc-o1 suspiciously good on JPEG: %d of %d", rc1, len(data))
	}
	// The JPEG-aware codecs must beat the generic ones decisively.
	if spec >= flate {
		t.Errorf("specarith (%d) not better than deflate (%d)", spec, flate)
	}
	// Lepton must beat the small-model coder.
	if lep >= spec {
		t.Errorf("lepton (%d) not better than specarith (%d)", lep, spec)
	}
	// 1-way is at least as good as the multithreaded split.
	if lep1 > lep+lep/100 {
		t.Errorf("lepton-1way (%d) worse than lepton (%d)", lep1, lep)
	}
	t.Logf("deflate=%d rc1=%d spec=%d lepton=%d lepton1=%d orig=%d",
		flate, rc1, spec, lep, lep1, len(data))
}

func TestRescanShrinksAndStaysValid(t *testing.T) {
	data := gen(t, 3, 320, 240)
	c := baseline.Rescan{}
	comp, err := c.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(data) {
		t.Fatalf("rescan did not shrink: %d >= %d", len(comp), len(data))
	}
	// The output must be a valid baseline JPEG with identical coefficients.
	f1, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := jpeg.DecodeScan(f1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := jpeg.Parse(comp, 0)
	if err != nil {
		t.Fatalf("rescan output unparseable: %v", err)
	}
	s2, err := jpeg.DecodeScan(f2)
	if err != nil {
		t.Fatalf("rescan output undecodable: %v", err)
	}
	for ci := range s1.Coeff {
		if !bytes.Equal(int16Bytes(s1.Coeff[ci]), int16Bytes(s2.Coeff[ci])) {
			t.Fatalf("component %d coefficients differ after rescan", ci)
		}
	}
	// Decompress must reproduce the optimized file.
	back, err := c.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, comp) {
		t.Fatal("rescan decompress mismatch")
	}
	t.Logf("rescan: %d -> %d (%.1f%%)", len(data), len(comp),
		100*(1-float64(len(comp))/float64(len(data))))
}

func TestRescanLeptonCompatible(t *testing.T) {
	// A rescanned file is still a baseline JPEG; Lepton must handle it.
	data := gen(t, 4, 200, 150)
	comp, err := baseline.Rescan{}.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewCodec().EncodeCtx(context.Background(), comp, core.EncodeOptions{VerifyRoundtrip: true})
	if err != nil {
		t.Fatalf("lepton on rescanned file: %v", err)
	}
	if len(res.Compressed) >= len(comp) {
		t.Fatalf("no savings on rescanned file")
	}
}

func TestGenericCodecsOnText(t *testing.T) {
	// Sanity: on redundant data the generic codecs must do well, proving
	// their poor JPEG showing is about the data, not the implementation.
	data := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog\n"), 500)
	for _, c := range []baseline.Codec{baseline.Flate{Level: 6}, baseline.RC1{}} {
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp) > len(data)/3 {
			t.Errorf("%s only reached %d of %d on text", c.Name(), len(comp), len(data))
		}
		back, err := c.Decompress(comp)
		if err != nil || !bytes.Equal(back, data) {
			t.Errorf("%s text roundtrip failed: %v", c.Name(), err)
		}
	}
}

func int16Bytes(v []int16) []byte {
	out := make([]byte, 2*len(v))
	for i, x := range v {
		out[2*i] = byte(uint16(x))
		out[2*i+1] = byte(uint16(x) >> 8)
	}
	return out
}
