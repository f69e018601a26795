//go:build !amd64 || noasm

package dct

// InverseBorder computes the border samples of the AC-only inverse DCT;
// see inverseBorderGo for the full contract. This build has no assembly
// kernels, so it is the scalar path directly.
func InverseBorder(coef []int16, q *[64]uint16, dst *Block) {
	inverseBorderGo(coef, q, dst)
}

// NonzeroMask returns the raster-order occupancy mask of 64 coefficients:
// bit i set iff coef[i] != 0 (bit 0 = DC).
func NonzeroMask(coef []int16) uint64 { return nonzeroMaskGo(coef) }
