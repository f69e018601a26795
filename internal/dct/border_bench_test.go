package dct_test

import (
	"testing"

	"lepton/internal/dct"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// borderBlock is one coded block and the quantization table it uses.
type borderBlock struct {
	coef []int16
	q    *[64]uint16
}

// photoBlocks decodes the blocks of a synthetic photo — what the model
// hands InverseBorder on every coded block.
func photoBlocks(b *testing.B) []borderBlock {
	data, err := imagegen.Generate(3, 640, 480)
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
	var blocks []borderBlock
	for ci, coeff := range s.Coeff {
		q := &f.Quant[f.Components[ci].TQ]
		for off := 0; off+64 <= len(coeff); off += 64 {
			blocks = append(blocks, borderBlock{coeff[off : off+64], q})
		}
	}
	return blocks
}

// refusedBlocks copies the photo's blocks with coefficient 1 raised just
// past the int16 kernel's guard (|c·q| > 12403), so every block takes the
// scalar fallback after the kernel refuses it.
func refusedBlocks(photo []borderBlock) []borderBlock {
	out := make([]borderBlock, len(photo))
	for i, blk := range photo {
		c := append([]int16(nil), blk.coef...)
		c[1] = int16(12404/int(blk.q[1]) + 1)
		out[i] = borderBlock{c, blk.q}
	}
	return out
}

func benchBorder(b *testing.B, blocks []borderBlock, fn func([]int16, *[64]uint16, *dct.Block)) {
	var dst dct.Block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &blocks[i%len(blocks)]
		fn(blk.coef, blk.q, &dst)
	}
}

// BenchmarkInverseBorder measures the dispatched border IDCT per block
// (the int16 kernel on AVX2 hosts, pure Go otherwise); it is untagged so
// the noasm CI bench-smoke exercises the fallback.
func BenchmarkInverseBorder(b *testing.B) {
	photo := photoBlocks(b)
	b.Run("photo", func(b *testing.B) { benchBorder(b, photo, dct.InverseBorder) })
	b.Run("refused", func(b *testing.B) { benchBorder(b, refusedBlocks(photo), dct.InverseBorder) })
}

// BenchmarkInverseBorderGo is the scalar path on the same photo blocks.
func BenchmarkInverseBorderGo(b *testing.B) {
	benchBorder(b, photoBlocks(b), dct.InverseBorderGo)
}
