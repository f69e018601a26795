package model

import (
	"math"
	"math/bits"

	"lepton/internal/dct"
)

// zigzag49 lists the zigzag-ordered raster positions of the 49 interior
// (u>=1, v>=1) coefficients — the "7x7" class of A.2.1.
var zigzag49 = func() [49]uint8 {
	var out [49]uint8
	n := 0
	for _, r := range dct.Zigzag {
		if r%8 != 0 && r/8 != 0 {
			out[n] = r
			n++
		}
	}
	return out
}()

// div rounds half away from zero, deterministically (paper §5.2: identical
// on every platform and build).
func div(a, b int64) int64 {
	if b < 0 {
		a, b = -a, -b
	}
	if a >= 0 {
		return (a + b/2) / b
	}
	return -((-a + b/2) / b)
}

// div2 is div(a, 2) as one flooring shift: (a+1)>>1 rounds a
// non-negative half up, and a>>1 rounds a negative half down, both away
// from zero. The gradient extrapolations call this twice per border pair,
// which made the generic divide a measurable slice of both codec
// directions.
func div2(a int64) int64 {
	return (a + 1 + a>>63) >> 1
}

// avg77 computes the 7x7 neighborhood-magnitude context of A.2.1: the
// weighted average (13|A| + 13|L| + 6|AL|)/32 of the co-located coefficients
// in the above, left, and above-left blocks.
func avg77(above, left, aboveLeft []int16, pos uint8) int32 {
	var acc int64
	if above != nil {
		a := int64(above[pos])
		if a < 0 {
			a = -a
		}
		acc += 13 * a
	}
	if left != nil {
		l := int64(left[pos])
		if l < 0 {
			l = -l
		}
		acc += 13 * l
	}
	if aboveLeft != nil {
		al := int64(aboveLeft[pos])
		if al < 0 {
			al = -al
		}
		acc += 6 * al
	}
	return int32(acc >> 5)
}

// basis00 is dct.Basis[0][0] as an untyped constant so the divisions in the
// Lakhani predictors strength-reduce to multiplies at the inlined div call
// sites (a real IDIV per edge coefficient was a measurable slice of both
// codec directions). TestBasis00Pinned keeps it honest against the table.
const basis00 = 2896

// predTables holds the quantizer-derived constants of one component's
// predictors, built once per segment so the per-coefficient arithmetic
// needs one multiply per Lakhani term and no variable divide.
type predTables struct {
	// col7[v*8+u] = Basis[u][7]·q[v*8+u] and col0[v*8+u] =
	// Basis[u][0]·q[v*8+u] weigh lakhaniCol's terms; row7 and row0 are
	// the same with Basis[v] for lakhaniRow. Each fits int32: |Basis| <
	// 2^12 and q < 2^16.
	col7, col0, row7, row0 [64]int32
	// rowQ[u] is q[u] and colQ[v] is q[v*8]: the steps the edge
	// predictions requantize to. rowQ[0] is the DC step.
	rowQ, colQ [8]divisor
}

func (t *predTables) build(q *[64]uint16) {
	for i, qi := range q {
		u, v := i%8, i/8
		t.col7[i] = dct.Basis[u][7] * int32(qi)
		t.col0[i] = dct.Basis[u][0] * int32(qi)
		t.row7[i] = dct.Basis[v][7] * int32(qi)
		t.row0[i] = dct.Basis[v][0] * int32(qi)
	}
	for k := 0; k < 8; k++ {
		t.rowQ[k] = newDivisor(q[k])
		t.colQ[k] = newDivisor(q[k*8])
	}
}

// divisor is a quantizer step d with m = ⌊(2^64−1)/d⌋, one less than the
// reciprocal M = ⌊(2^64−1)/d⌋+1 of Lemire, Kaser & Kurz ("Faster
// Remainder by Direct Computation", 2019), so that d = 1 (M = 2^64) fits
// too. The parser rejects zero quantizers.
type divisor struct{ d, m uint64 }

func newDivisor(d uint16) divisor { return divisor{uint64(d), math.MaxUint64 / uint64(d)} }

// quot returns ⌊n/d⌋ as the high word of M·n = m·n + n. It is exact
// whenever n·d < 2^64: M·n/2^64 = n/d + e·n/(d·2^64) with 0 <= e < d, and
// the error term stays below 1/d.
func (dv divisor) quot(n uint64) uint64 {
	hi, lo := bits.Mul64(dv.m, n)
	_, carry := bits.Add64(lo, n, 0)
	return hi + carry
}

// numer returns the rounding numerator |a| + d/2 of div(a, d).
func (dv divisor) numer(a int64) uint64 {
	n := uint64(a)
	if a < 0 {
		n = -n
	}
	return n + dv.d/2
}

// requant is div(a, d) clamped to the coded range [-2048, 2047], without
// the divide. A quotient of 2048 or more clamps whatever its exact value,
// so quot only sees numerators below 2048·d < 2^27.
func (dv divisor) requant(a int64) int32 {
	n := dv.numer(a)
	if n >= 2048*dv.d {
		if a < 0 {
			return -2048
		}
		return 2047
	}
	k := int32(dv.quot(n))
	if a < 0 {
		return -k
	}
	return k
}

// lakhaniCol predicts the left-column coefficient F[v*8+0] (the "1x7" class)
// from the left block's full coefficients and the current block's already
// known 7x7 coefficients, assuming pixel continuity across the vertical
// block edge (A.2.2):
//
//	F̄[v,0] = (Σ_u B[u][7]·L[v,u] − Σ_{u≥1} B[u][0]·F[v,u]) / B[0][0]
//
// All inputs are quantized coefficients; the arithmetic runs dequantized and
// the result is re-quantized to the coefficient's step.
func lakhaniCol(left, cur []int16, t *predTables, v int) int32 {
	l, c := left[v*8:v*8+8], cur[v*8:v*8+8]
	w7, w0 := t.col7[v*8:v*8+8], t.col0[v*8:v*8+8]
	acc := int64(w7[0]) * int64(l[0])
	for u := 1; u < 8; u++ {
		acc += int64(w7[u])*int64(l[u]) - int64(w0[u])*int64(c[u])
	}
	// acc is scaled by 2^BasisScaleBits; dividing by B[0][0] (same scale)
	// cancels the scaling. Then re-quantize.
	return t.colQ[v].requant(div(acc, basis00))
}

// lakhaniRow predicts the top-row coefficient F[0*8+u] (the "7x1" class)
// from the above block, symmetric to lakhaniCol.
func lakhaniRow(above, cur []int16, t *predTables, u int) int32 {
	// Column u, from row 0 at index 0 to row 7 at index 56.
	a, c := above[u:u+57], cur[u:u+57]
	w7, w0 := t.row7[u:u+57], t.row0[u:u+57]
	acc := int64(w7[0]) * int64(a[0])
	for i := 8; i < 57; i += 8 {
		acc += int64(w7[i])*int64(a[i]) - int64(w0[i])*int64(c[i])
	}
	return t.rowQ[u].requant(div(acc, basis00))
}

// blockEdges computes the 16 boundary samples cached for DC prediction: the
// bottom two pixel rows and right two pixel columns of the fully decoded
// (AC+DC, dequantized) block. Values are in IDCT sample space (no +128
// shift, unclamped) and saturate int16.
type blockEdges struct {
	bottom [16]int16 // rows 6 and 7: [x] and [8+x]
	right  [16]int16 // cols 6 and 7: [y] and [8+y]
}

// acOnlyPixels computes the inverse DCT of a block's AC coefficients alone
// (DC treated as zero), dequantized. Both the DC predictor and the edge
// cache derive from this single transform — the block's full pixels are
// these plus a constant DC shift. Dequantization and the transform are
// fused, and only the border rows and columns the two consumers read are
// computed (dct.InverseBorder); px must come in zeroed, which every
// caller's fresh stack block guarantees.
func acOnlyPixels(coef []int16, q *[64]uint16, px *dct.Block) {
	dct.InverseBorder(coef, q, px)
}

// dcPixelShift is the uniform per-sample contribution of the quantized DC
// coefficient: the orthonormal basis gives each sample dc*q0/8.
func dcPixelShift(dc int32, q *[64]uint16) int32 {
	return int32(div(int64(dc)*int64(q[0]), 8))
}

// edgesFromPixels fills the edge cache from the AC-only pixels plus the DC
// shift (exactness against a reference IDCT is irrelevant; encoder/decoder
// agreement is what matters, §5.2).
func edgesFromPixels(px *dct.Block, dc int32, q *[64]uint16, e *blockEdges) {
	shift := dcPixelShift(dc, q)
	for x := 0; x < 8; x++ {
		e.bottom[x] = sat16(px[6*8+x] + shift)
		e.bottom[8+x] = sat16(px[7*8+x] + shift)
	}
	for y := 0; y < 8; y++ {
		e.right[y] = sat16(px[y*8+6] + shift)
		e.right[8+y] = sat16(px[y*8+7] + shift)
	}
}

// computeEdges is the uncached path: full block to edge samples.
func computeEdges(coef []int16, q *[64]uint16, e *blockEdges) {
	var px dct.Block
	acOnlyPixels(coef, q, &px)
	edgesFromPixels(&px, int32(coef[0]), q, e)
}

func sat16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// dcPrediction implements A.2.3: reconstruct the block's pixels from its AC
// coefficients alone, linearly extrapolate gradients from the above and left
// neighbors' last two pixel rows/columns, and solve for the DC value that
// makes the gradients meet at each of up to 16 border pairs. Returns the
// predicted quantized DC and a confidence bucket (log of the prediction
// spread).
//
// If neither neighbor is available inside this thread segment, it falls back
// to predicting the previous block's DC (prevDC), like baseline JPEG.
func dcPrediction(px *dct.Block, t *predTables, above, left *blockEdges, prevDC int32) (pred int32, conf int) {
	if above == nil && left == nil {
		return prevDC, confBuckets - 1
	}
	var sum int64
	minP, maxP := int64(math.MaxInt64), int64(math.MinInt64)
	if above != nil {
		for x := 0; x < 8; x++ {
			a6 := int64(above.bottom[x])
			a7 := int64(above.bottom[8+x])
			c0 := int64(px[x])
			c1 := int64(px[8+x])
			// Gradient continuation: a7 + (a7-a6)/2 == c0 + dc - (c1-c0)/2.
			p := a7 + div2(a7-a6) - c0 + div2(c1-c0)
			sum += p
			minP, maxP = min(minP, p), max(maxP, p)
		}
	}
	if left != nil {
		for y := 0; y < 8; y++ {
			l6 := int64(left.right[y])
			l7 := int64(left.right[8+y])
			c0 := int64(px[y*8])
			c1 := int64(px[y*8+1])
			p := l7 + div2(l7-l6) - c0 + div2(c1-c0)
			sum += p
			minP, maxP = min(minP, p), max(maxP, p)
		}
	}
	// 8 pairs (one neighbor) or 16 (both); constant divisors let the
	// inlined div strength-reduce instead of issuing an IDIV per block.
	var avgPix int64
	if above != nil && left != nil {
		avgPix = div(sum, 16)
	} else {
		avgPix = div(sum, 8)
	}
	// A DC step of 1 shifts every sample by q0/8 (orthonormal basis), so
	// the quantized DC is avgPix*8/q0.
	q0 := t.rowQ[0]
	predDC := q0.requant(avgPix * 8)
	// The spread bucket saturates at 2^20, so quot only sees numerators
	// below 2^20·q0 < 2^36.
	spread := uint64(1 << 20)
	if n := q0.numer((maxP - minP) * 8); n < spread*q0.d {
		spread = q0.quot(n)
	}
	return predDC, ilog2(int32(spread), confBuckets)
}
