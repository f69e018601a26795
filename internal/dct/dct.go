// Package dct implements the 8x8 discrete cosine transform used by baseline
// JPEG, in deterministic fixed-point integer arithmetic, together with the
// zigzag scan order and quantization helpers.
//
// Determinism matters more than speed here: Lepton's DC predictor runs the
// inverse transform on both the encode and decode paths and the two must
// agree bit-for-bit on every platform (paper §5.2). All math is int32/int64
// with explicit scaling; no floating point.
package dct

// Zigzag maps zigzag scan position -> raster position within an 8x8 block.
var Zigzag = [64]uint8{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// Unzigzag maps raster position -> zigzag scan position.
var Unzigzag [64]uint8

func init() {
	for z, r := range Zigzag {
		Unzigzag[r] = uint8(z)
	}
}

// BasisScaleBits is the fixed-point scale of the Basis table.
const BasisScaleBits = 13

// Basis holds the orthonormal 8-point DCT basis B[u][x] =
// s(u)*cos((2x+1)uπ/16) with s(0)=sqrt(1/8), s(u>0)=1/2, scaled by
// 2^BasisScaleBits and rounded to nearest. Pixel values of a block are
// P(x,y) = Σ_u Σ_v B[u][x] B[v][y] F[v*8+u] (with F in natural raster order,
// u horizontal). Lepton's Lakhani edge predictor solves linear equations in
// these basis values (paper A.2.2).
var Basis = [8][8]int32{
	{2896, 2896, 2896, 2896, 2896, 2896, 2896, 2896},
	{4017, 3406, 2276, 799, -799, -2276, -3406, -4017},
	{3784, 1567, -1567, -3784, -3784, -1567, 1567, 3784},
	{3406, -799, -4017, -2276, 2276, 4017, 799, -3406},
	{2896, -2896, -2896, 2896, 2896, -2896, -2896, 2896},
	{2276, -4017, 799, 3406, -3406, -799, 4017, -2276},
	{1567, -3784, 3784, -1567, -1567, 3784, -3784, 1567},
	{799, -2276, 3406, -4017, 4017, -3406, 2276, -799},
}

// Block is an 8x8 block of DCT coefficients or samples in raster order.
type Block [64]int32

// Forward computes the 2-D orthonormal DCT of the 64 samples in src (raster
// order, typically level-shifted pixel values) into dst. dst[v*8+u] is the
// coefficient of horizontal frequency u and vertical frequency v.
func Forward(src, dst *Block) {
	var tmp Block
	// Rows: 1-D DCT along x for each y.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var acc int64
			for x := 0; x < 8; x++ {
				acc += int64(Basis[u][x]) * int64(src[y*8+x])
			}
			tmp[y*8+u] = int32(round(acc, BasisScaleBits))
		}
	}
	// Columns: 1-D DCT along y for each u.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var acc int64
			for y := 0; y < 8; y++ {
				acc += int64(Basis[v][y]) * int64(tmp[y*8+u])
			}
			dst[v*8+u] = int32(round(acc, BasisScaleBits))
		}
	}
}

// Inverse computes the 2-D inverse orthonormal DCT of the coefficients in
// src into dst (raster-order samples, not level-shifted or clamped).
//
// Rounding is a simple biased shift, deterministic across platforms; this
// is the hot path of Lepton's DC predictor, which only needs encoder and
// decoder to agree exactly, not to match a reference IDCT.
func Inverse(src, dst *Block) {
	const half = 1 << (BasisScaleBits - 1)
	// Columns first: sum over v, skipping zero coefficients — quantized
	// blocks are sparse, and the cost of this pass scales with the number
	// of nonzeros.
	var acc [64]int64
	for v := 0; v < 8; v++ {
		row := src[v*8 : v*8+8]
		b := &Basis[v]
		for u := 0; u < 8; u++ {
			c := int64(row[u])
			if c == 0 {
				continue
			}
			for y := 0; y < 8; y++ {
				acc[y*8+u] += int64(b[y]) * c
			}
		}
	}
	var tmp Block
	for i := range tmp {
		tmp[i] = int32((acc[i] + half) >> BasisScaleBits)
	}
	// Rows: sum over u, skipping zero intermediates the same way — a column
	// with no nonzero coefficient contributes exactly zero to every sample
	// (the +half bias rounds a zero sum to zero), so dropping its term
	// leaves the int64 accumulation bit-identical while the cost again
	// scales with the number of occupied columns.
	for y := 0; y < 8; y++ {
		t := tmp[y*8 : y*8+8]
		var a [8]int64
		for u := 0; u < 8; u++ {
			c := int64(t[u])
			if c == 0 {
				continue
			}
			b := &Basis[u]
			for x := 0; x < 8; x++ {
				a[x] += int64(b[x]) * c
			}
		}
		for x := 0; x < 8; x++ {
			dst[y*8+x] = int32((a[x] + half) >> BasisScaleBits)
		}
	}
}

// inverseBorderGo is the portable implementation of InverseBorder (see the
// build-tagged wrappers): the inverse transform of a block's dequantized AC
// coefficients (coef[i]*q[i], index 0 treated as zero), restricted to the
// frame samples consumed by Lepton's DC predictor and edge caches: every
// sample of rows 0, 1, 6, 7 and columns 0, 1, 6, 7. The 16 interior samples
// (x and y both in 2..5) are left untouched — callers pass a zeroed block
// and never read them. Dequantization is fused into the column pass so the
// sparse common case touches only the nonzero coefficients; computed
// samples are bit-identical to dequantizing into a block and running
// Inverse, so encoder and decoder stay in exact agreement (paper §5.2).
//
// The AVX2 kernel in dct_amd64.s computes the same samples densely in
// 16-bit lanes (the sparse skips here only ever drop exact-zero
// contributions, and the +half biased shift maps a zero sum to zero, so
// dense and sparse evaluation are bit-identical). It refuses blocks whose
// dequantized AC coefficients exceed its int16 range; those, and every
// block on builds without the kernel, run here.
func inverseBorderGo(coef []int16, q *[64]uint16, dst *Block) {
	const half = 1 << (BasisScaleBits - 1)
	var acc [64]int64
	var occ [8]bool // columns with any nonzero coefficient
	for v := 0; v < 8; v++ {
		row := coef[v*8 : v*8+8]
		qr := q[v*8 : v*8+8]
		b := &Basis[v]
		u := 0
		if v == 0 {
			u = 1 // AC only: the DC coefficient is treated as zero
		}
		for ; u < 8; u++ {
			if row[u] == 0 {
				continue
			}
			c := int64(row[u]) * int64(qr[u])
			occ[u] = true
			for y := 0; y < 8; y++ {
				acc[y*8+u] += int64(b[y]) * c
			}
		}
	}
	// Intermediates of untouched columns are exactly zero ((0+half)>>scale),
	// so only occupied columns need converting into the zeroed tmp.
	var tmp Block
	for u := 0; u < 8; u++ {
		if !occ[u] {
			continue
		}
		for y := 0; y < 8; y++ {
			tmp[y*8+u] = int32((acc[y*8+u] + half) >> BasisScaleBits)
		}
	}
	for y := 0; y < 8; y++ {
		t := tmp[y*8 : y*8+8]
		var a [8]int64
		if y >= 2 && y <= 5 {
			// Interior rows: only the left and right column pairs are read.
			for u := 0; u < 8; u++ {
				c := int64(t[u])
				if c == 0 {
					continue
				}
				b := &Basis[u]
				a[0] += int64(b[0]) * c
				a[1] += int64(b[1]) * c
				a[6] += int64(b[6]) * c
				a[7] += int64(b[7]) * c
			}
			dst[y*8+0] = int32((a[0] + half) >> BasisScaleBits)
			dst[y*8+1] = int32((a[1] + half) >> BasisScaleBits)
			dst[y*8+6] = int32((a[6] + half) >> BasisScaleBits)
			dst[y*8+7] = int32((a[7] + half) >> BasisScaleBits)
			continue
		}
		for u := 0; u < 8; u++ {
			c := int64(t[u])
			if c == 0 {
				continue
			}
			b := &Basis[u]
			for x := 0; x < 8; x++ {
				a[x] += int64(b[x]) * c
			}
		}
		for x := 0; x < 8; x++ {
			dst[y*8+x] = int32((a[x] + half) >> BasisScaleBits)
		}
	}
}

func round(v int64, bits uint) int64 {
	if v >= 0 {
		return (v + 1<<(bits-1)) >> bits
	}
	return -((-v + 1<<(bits-1)) >> bits)
}

// Quantize divides coefficients by the quantization table (raster order)
// with round-to-nearest, as a JPEG encoder does.
func Quantize(coeffs *Block, q *[64]uint16, out *Block) {
	for i := 0; i < 64; i++ {
		d := int64(q[i])
		out[i] = int32(round2(int64(coeffs[i]), d))
	}
}

func round2(v, d int64) int64 {
	if v >= 0 {
		return (v + d/2) / d
	}
	return -((-v + d/2) / d)
}

// Dequantize multiplies quantized coefficients by the quantization table.
func Dequantize(coeffs *Block, q *[64]uint16, out *Block) {
	for i := 0; i < 64; i++ {
		out[i] = coeffs[i] * int32(q[i])
	}
}

// StdLuminanceQuant and StdChrominanceQuant are the example quantization
// tables from JPEG Annex K, in raster order, at quality 50.
var StdLuminanceQuant = [64]uint16{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

var StdChrominanceQuant = [64]uint16{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// ScaleQuant scales an Annex K table to the libjpeg quality convention
// (1..100) and clamps entries to [1, 255] so they fit 8-bit DQT precision.
func ScaleQuant(base *[64]uint16, quality int) [64]uint16 {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - quality*2
	}
	var out [64]uint16
	for i, v := range base {
		q := (int(v)*scale + 50) / 100
		if q < 1 {
			q = 1
		}
		if q > 255 {
			q = 255
		}
		out[i] = uint16(q)
	}
	return out
}
