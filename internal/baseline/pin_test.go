package baseline_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"lepton/internal/baseline"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// TestComparatorBytesPinned pins the SHA-256 of the Figure 1–3 comparators'
// compressed output over generated inputs in every scan layout, with and
// without restart markers and with both pad bits. Both comparators decode
// the scan into whole planes, and Rescan re-encodes it with new tables, so a
// change to the scan decode or re-encode that moves one coded bit fails
// here. Every input must compress. SpecArith's output must also decompress
// to its input, and Rescan's must decode to the input's coefficients: its
// symbol tally walks the blocks in the scan's MCU order with the DC chain
// reset at each restart, so its tables code every symbol the scan needs.
func TestComparatorBytesPinned(t *testing.T) {
	want := map[string]string{
		"jpegrescan-style/gray-rst0-pad0": "3d9135bec5ce18c5a33bcd6103de82a4cbd90a3a542175ae09782f1bef412826",
		"specarith/gray-rst0-pad0":        "d0f1d21a3f112dd15329faba451f0fd677425d22dfe370b0fd23977145b3da28",
		"jpegrescan-style/gray-rst0-pad1": "13e2b8aeefd41fe210908cd0a77dddfaa4014bbcedcd07421c2d9aa4a5f6f132",
		"specarith/gray-rst0-pad1":        "761aced28f0ea180c57e3fd570800e029184e47141786c1ca4e9f0fd560e1103",
		"jpegrescan-style/gray-rst5-pad0": "aa52ce45315041ef6db697b77a57abd4ea2e0c144095026c96a847841703c130",
		"specarith/gray-rst5-pad0":        "b61b3ba478c2a63f428fbe8ea0067f26c5f87e0b77227a5bba7fe76397b4d068",
		"jpegrescan-style/gray-rst5-pad1": "5fd4ee560036a88a81e3162496e2b207ab65bb47a52b6e293dfe37f2b5cc5168",
		"specarith/gray-rst5-pad1":        "5960fb2cbaefa858f54e7c54c0784d1da0bd419f84189bed33cece4e3b6ee2a2",
		"jpegrescan-style/420-rst0-pad0":  "ee08d6e477805455d60836a56e0190be1641d22879d5a672a199fde6601f9ced",
		"specarith/420-rst0-pad0":         "5d8f6a0b0bd81eace7d54803f55e0808a4b55fb399e006cf357fadfca2fb9f6a",
		"jpegrescan-style/420-rst0-pad1":  "a4569d046bf32320bdbc0558a02b12b183c8fdbaef7a9e1142989bde63b975ec",
		"specarith/420-rst0-pad1":         "8c784a379898d8dcca4d241c564400b702deada7a97b0993bd98eca664c195a9",
		"jpegrescan-style/420-rst5-pad0":  "fe5c63dcdaf67ac0c23901464d250417d3064e40ab5c22f852fed628b88cc099",
		"specarith/420-rst5-pad0":         "284f54afdd88e59dddc3cf6a2e7080b12719303e421dad019724ee9f17e39026",
		"jpegrescan-style/420-rst5-pad1":  "c9637b22a37bf068a036e10f3d622b6de9bc4d7b78246e745643f690559475bf",
		"specarith/420-rst5-pad1":         "191ae1cc74115a0c94e95809de9dc73ad2a2d42cc372be381f30ab3926e7d0ab",
		"jpegrescan-style/444-rst0-pad0":  "e44e8857ceb64d5417d1dee3a82187316b303df240dd02b6713e30467b16403b",
		"specarith/444-rst0-pad0":         "fd4baad66df78d495ce847f9d64c5ed32f54421ac6d56205729f9b146c7fc414",
		"jpegrescan-style/444-rst0-pad1":  "e44e8857ceb64d5417d1dee3a82187316b303df240dd02b6713e30467b16403b",
		"specarith/444-rst0-pad1":         "4c141c0312491d722d14a34cda56b2c90dcc6605b4af56c4e560d36485fb837a",
		"jpegrescan-style/444-rst5-pad0":  "0d59ce9a2eb7ac549f9b518bf117204f858d43a079476264e6fe77836c96e89e",
		"specarith/444-rst5-pad0":         "c10519fceccde096d6ffa8eb9059b5f811d60027e1d0b8296a78857c9e9226fd",
		"jpegrescan-style/444-rst5-pad1":  "53e024719057fee1d3b644ec82ff54f3bbc271c8c8851da9f40ded882d54f412",
		"specarith/444-rst5-pad1":         "1567d41c578a069a5531b1cbeaef4e8a801647c73ce63eb558cd7b710cfa4cb9",
	}
	layouts := []struct {
		name string
		opt  imagegen.Options
	}{
		{"gray", imagegen.Options{Quality: 85, Grayscale: true}},
		{"420", imagegen.Options{Quality: 80, SubsampleChroma: true}},
		{"444", imagegen.Options{Quality: 75}},
	}
	img := imagegen.Synthesize(17, 120, 88)
	for _, l := range layouts {
		for _, ri := range []int{0, 5} {
			for _, pad := range []uint8{0, 1} {
				opt := l.opt
				opt.RestartInterval, opt.PadBit = ri, pad
				data, err := imagegen.EncodeJPEG(img, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []baseline.Codec{baseline.Rescan{}, baseline.SpecArith{}} {
					name := fmt.Sprintf("%s/%s-rst%d-pad%d", c.Name(), l.name, ri, pad)
					comp, err := c.Compress(data)
					got := "refused: " + fmt.Sprint(err)
					if err == nil {
						sum := sha256.Sum256(comp)
						got = hex.EncodeToString(sum[:])
					}
					if got != want[name] {
						t.Errorf("%s: got %q, want %q", name, got, want[name])
					}
					if err != nil {
						continue
					}
					back, err := c.Decompress(comp)
					if err != nil {
						t.Errorf("%s: decompress: %v", name, err)
						continue
					}
					if c.FilePreserving() && !bytes.Equal(back, data) {
						t.Errorf("%s: round trip differs from the input", name)
					}
					if !slices.Equal(coefficients(t, back), coefficients(t, data)) {
						t.Errorf("%s: output decodes to other coefficients than the input", name)
					}
				}
			}
		}
	}
}

// coefficients returns every quantized coefficient of a baseline JPEG's
// scan, component by component.
func coefficients(t *testing.T, data []byte) []int16 {
	t.Helper()
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(s.Coeff...)
}
