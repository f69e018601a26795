package model

import (
	"math"
	"math/rand"
	"testing"

	"lepton/internal/dct"
)

// TestBasis00Pinned keeps the basis00 constant in lockstep with the DCT
// table it mirrors; the Lakhani predictors divide by it as a compile-time
// constant for strength reduction.
func TestBasis00Pinned(t *testing.T) {
	if int64(dct.Basis[0][0]) != basis00 {
		t.Fatalf("basis00 = %d, dct.Basis[0][0] = %d", basis00, dct.Basis[0][0])
	}
}

// The reference predictors below are the arithmetic the tables replace:
// Basis and q multiplied per term, and variable divides.

func clampCoef(v int64) int32 {
	return int32(max(-2048, min(v, 2047)))
}

func lakhaniColRef(left, cur []int16, q *[64]uint16, v int) int32 {
	var acc int64
	for u := 0; u < 8; u++ {
		acc += int64(dct.Basis[u][7]) * int64(left[v*8+u]) * int64(q[v*8+u])
	}
	for u := 1; u < 8; u++ {
		acc -= int64(dct.Basis[u][0]) * int64(cur[v*8+u]) * int64(q[v*8+u])
	}
	return clampCoef(div(div(acc, basis00), int64(q[v*8])))
}

func lakhaniRowRef(above, cur []int16, q *[64]uint16, u int) int32 {
	var acc int64
	for v := 0; v < 8; v++ {
		acc += int64(dct.Basis[v][7]) * int64(above[v*8+u]) * int64(q[v*8+u])
	}
	for v := 1; v < 8; v++ {
		acc -= int64(dct.Basis[v][0]) * int64(cur[v*8+u]) * int64(q[v*8+u])
	}
	return clampCoef(div(div(acc, basis00), int64(q[u])))
}

func dcPredictionRef(px *dct.Block, q *[64]uint16, above, left *blockEdges, prevDC int32) (int32, int) {
	if above == nil && left == nil {
		return prevDC, confBuckets - 1
	}
	var preds []int64
	if above != nil {
		for x := 0; x < 8; x++ {
			a6, a7 := int64(above.bottom[x]), int64(above.bottom[8+x])
			c0, c1 := int64(px[x]), int64(px[8+x])
			preds = append(preds, a7+div(a7-a6, 2)-c0+div(c1-c0, 2))
		}
	}
	if left != nil {
		for y := 0; y < 8; y++ {
			l6, l7 := int64(left.right[y]), int64(left.right[8+y])
			c0, c1 := int64(px[y*8]), int64(px[y*8+1])
			preds = append(preds, l7+div(l7-l6, 2)-c0+div(c1-c0, 2))
		}
	}
	sum, minP, maxP := int64(0), preds[0], preds[0]
	for _, p := range preds {
		sum += p
		minP, maxP = min(minP, p), max(maxP, p)
	}
	avgPix := div(sum, int64(len(preds)))
	predDC := clampCoef(div(avgPix*8, int64(q[0])))
	spread := div((maxP-minP)*8, int64(q[0]))
	return predDC, ilog2(int32(min(spread, 1<<20)), confBuckets)
}

// randQuant draws an 8-bit table, a 16-bit one or a flat table of ones.
func randQuant(rng *rand.Rand) *[64]uint16 {
	var q [64]uint16
	limit := []int{1, 255, 65535}[rng.Intn(3)]
	for i := range q {
		q[i] = uint16(1 + rng.Intn(limit))
	}
	return &q
}

// randCoefs draws a block of mostly small coefficients, with full-range
// ones now and then so the requantize clamp is exercised.
func randCoefs(rng *rand.Rand) []int16 {
	c := make([]int16, 64)
	for i := range c {
		switch rng.Intn(8) {
		case 0:
			c[i] = int16(rng.Intn(1<<16) - 1<<15)
		case 1, 2, 3:
			c[i] = int16(rng.Intn(129) - 64)
		}
	}
	return c
}

func TestLakhaniTablesParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20000; iter++ {
		q := randQuant(rng)
		var pt predTables
		pt.build(q)
		nb, cur := randCoefs(rng), randCoefs(rng)
		for k := 1; k < 8; k++ {
			if got, want := lakhaniCol(nb, cur, &pt, k), lakhaniColRef(nb, cur, q, k); got != want {
				t.Fatalf("iter %d: lakhaniCol(v=%d) = %d, reference %d\nq=%v", iter, k, got, want, q)
			}
			if got, want := lakhaniRow(nb, cur, &pt, k), lakhaniRowRef(nb, cur, q, k); got != want {
				t.Fatalf("iter %d: lakhaniRow(u=%d) = %d, reference %d\nq=%v", iter, k, got, want, q)
			}
		}
	}
}

func TestDCPredictionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 20000; iter++ {
		q := randQuant(rng)
		var pt predTables
		pt.build(q)
		// Pixels up to the int32 extremes of out-of-range blocks, or the
		// few thousand of real ones.
		span := []int64{1 << 8, 1 << 13, 1 << 32}[rng.Intn(3)]
		var px dct.Block
		for i := range px {
			px[i] = int32(rng.Int63n(span) - span/2)
		}
		var ab, lf blockEdges
		for i := 0; i < 16; i++ {
			ab.bottom[i] = int16(rng.Intn(1<<16) - 1<<15)
			lf.right[i] = int16(rng.Intn(1<<16) - 1<<15)
		}
		above, left := &ab, &lf
		switch iter % 4 {
		case 1:
			above = nil
		case 2:
			left = nil
		}
		gp, gc := dcPrediction(&px, &pt, above, left, 5)
		wp, wc := dcPredictionRef(&px, q, above, left, 5)
		if gp != wp || gc != wc {
			t.Fatalf("iter %d: dcPrediction = (%d, %d), reference (%d, %d)", iter, gp, gc, wp, wc)
		}
	}
}

// TestDivisorExhaustive8Bit checks quot against division for every 8-bit
// quantizer over every numerator below the requantize clamp (2048·d), and
// at every quotient boundary up to the DC spread clamp (2^20·d).
func TestDivisorExhaustive8Bit(t *testing.T) {
	for d := uint64(1); d < 256; d++ {
		dv := newDivisor(uint16(d))
		k, r := uint64(0), uint64(0)
		for n := uint64(0); n < 2048*d; n++ {
			if got := dv.quot(n); got != k {
				t.Fatalf("d=%d n=%d: quot %d, want %d", d, n, got, k)
			}
			if r++; r == d {
				k, r = k+1, 0
			}
		}
		for k := uint64(2048); k <= 1<<20; k++ {
			if dv.quot(k*d) != k || dv.quot(k*d-1) != k-1 {
				t.Fatalf("d=%d: quot wrong at the boundary of quotient %d", d, k)
			}
		}
	}
}

// TestDivisorBoundaries16Bit checks quot at the quotient boundaries of every
// 16-bit quantizer: all of them up to the requantize clamp, and the top
// ones below the spread clamp, where the error term e·n/2^64 peaks.
func TestDivisorBoundaries16Bit(t *testing.T) {
	check := func(dv divisor, k uint64) {
		if dv.quot(k*dv.d) != k || dv.quot(k*dv.d-1) != k-1 {
			t.Fatalf("d=%d: quot wrong at the boundary of quotient %d", dv.d, k)
		}
	}
	for d := 1; d <= math.MaxUint16; d++ {
		dv := newDivisor(uint16(d))
		for k := uint64(1); k <= 2048; k++ {
			check(dv, k)
		}
		for k := uint64(1<<20 - 64); k <= 1<<20; k++ {
			check(dv, k)
		}
	}
}
