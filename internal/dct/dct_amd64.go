//go:build amd64 && !noasm

package dct

import (
	"lepton/internal/cpufeat"
)

// useAVX2 gates the assembly kernels; cpufeat is an imported package, so
// its CPUID probe runs before this initializer.
var useAVX2 = cpufeat.X86.HasAVX2

// basisPairs[p*8+k] packs Basis[2p][k] (low word) with Basis[2p+1][k]
// (high word): broadcast, it is one VPMADDWD operand of inverseBorderI16's
// column pass; eight in a row are the row pass's operand for pair p.
var basisPairs = func() (t [32]uint32) {
	for p := 0; p < 4; p++ {
		for k := 0; k < 8; k++ {
			t[p*8+k] = uint32(uint16(Basis[2*p][k])) | uint32(uint16(Basis[2*p+1][k]))<<16
		}
	}
	return t
}()

// InverseBorder computes the border samples of the AC-only inverse DCT;
// see inverseBorderGo for the full contract. On AVX2 hosts the int16
// kernel takes every block whose dequantized AC coefficients it can carry
// exactly (all of them, for any 8-bit JPEG); the rest fall back to the
// scalar path. Both are bit-identical (differential-tested and fuzzed).
func InverseBorder(coef []int16, q *[64]uint16, dst *Block) {
	_ = coef[:64]
	if useAVX2 && inverseBorderI16(&coef[0], q, dst) {
		return
	}
	inverseBorderGo(coef, q, dst)
}

// NonzeroMask returns the raster-order occupancy mask of 64 coefficients:
// bit i set iff coef[i] != 0 (bit 0 = DC).
func NonzeroMask(coef []int16) uint64 {
	_ = coef[:64]
	if useAVX2 {
		return nonzeroMask64AVX2(&coef[0])
	}
	return nonzeroMaskGo(coef)
}

// Implemented in dct_amd64.s. The noescape promises keep caller blocks on
// their stacks: without them every &block passed in is forced to the heap,
// one allocation per coded block.
//
//go:noescape
func inverseBorderI16(coef *int16, q *[64]uint16, dst *Block) bool

//go:noescape
func nonzeroMask64AVX2(coef *int16) uint64
