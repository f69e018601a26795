package dct

// Nonzero masks and the zigzag bit permutation.
//
// Lepton's per-block model spends a surprising share of its time just
// *finding* the nonzero coefficients: the 7x7 count walks 49 scattered
// raster positions, the edge counts walk two more strides, and the baseline
// scan encoder walks all 63 AC positions in zigzag order even when a block
// holds three nonzeros. A single 64-bit occupancy mask answers all of those
// with popcounts and trailing-zero iteration, and on amd64 the mask itself
// is produced by an AVX2 compare+movemask kernel (see dct_amd64.s).

// nonzeroMaskGo is the portable NonzeroMask: bit i set iff coef[i] != 0,
// raster order, bit 0 = DC.
func nonzeroMaskGo(coef []int16) uint64 {
	_ = coef[:64]
	var m uint64
	for i := 0; i < 64; i++ {
		if coef[i] != 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

// zigzagMaskTab[i][b] is the zigzag-order image of raster-mask byte i
// holding bits b: OR over set bits j of 1 << Unzigzag[i*8+j]. Eight lookups
// permute a full 64-bit mask. 16 KiB, built once at init.
var zigzagMaskTab [8][256]uint64

func init() {
	for i := 0; i < 8; i++ {
		for b := 0; b < 256; b++ {
			var m uint64
			for j := 0; j < 8; j++ {
				if b&(1<<uint(j)) != 0 {
					m |= 1 << Unzigzag[i*8+j]
				}
			}
			zigzagMaskTab[i][b] = m
		}
	}
}

// ZigzagMask permutes a raster-order 64-bit block mask (bit r = raster
// position r) into zigzag order (bit z set iff bit Zigzag[z] was set).
func ZigzagMask(raster uint64) uint64 {
	return zigzagMaskTab[0][raster&0xFF] |
		zigzagMaskTab[1][raster>>8&0xFF] |
		zigzagMaskTab[2][raster>>16&0xFF] |
		zigzagMaskTab[3][raster>>24&0xFF] |
		zigzagMaskTab[4][raster>>32&0xFF] |
		zigzagMaskTab[5][raster>>40&0xFF] |
		zigzagMaskTab[6][raster>>48&0xFF] |
		zigzagMaskTab[7][raster>>56&0xFF]
}
