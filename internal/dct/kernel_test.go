package dct

import (
	"math/rand"
	"testing"
)

// borderGuard is the largest dequantized AC magnitude |coef·q| the int16
// border kernel accepts; beyond it the kernel refuses the block.
const borderGuard = 12403

// borderKernel is the int16 border kernel on builds that have it, nil
// elsewhere (set by kernel_amd64_test.go).
var borderKernel func(coef []int16, q *[64]uint16, dst *Block) bool

// randCoef fills a 64-coefficient block with n nonzeros at random raster
// positions, values spanning the full int16 range.
func randCoef(rng *rand.Rand, n int) []int16 {
	coef := make([]int16, 64)
	for i := 0; i < n; i++ {
		coef[rng.Intn(64)] = int16(rng.Intn(1<<16) - 1<<15)
	}
	return coef
}

func randQuant(rng *rand.Rand) *[64]uint16 {
	var q [64]uint16
	for i := range q {
		q[i] = uint16(rng.Intn(1 << 16))
	}
	return &q
}

// randGuardBlock draws a block whose dequantized AC magnitudes are capped
// by a random bound around borderGuard, so about a third of the blocks
// cross it: 8-bit quantizers mostly, 16-bit ones now and then.
func randGuardBlock(rng *rand.Rand) ([]int16, *[64]uint16) {
	var q [64]uint16
	for i := range q {
		if rng.Intn(8) == 0 {
			q[i] = uint16(1 + rng.Intn(65535))
		} else {
			q[i] = uint16(1 + rng.Intn(255))
		}
	}
	bound := rng.Intn(3 * borderGuard / 2)
	coef := make([]int16, 64)
	for n := rng.Intn(65); n > 0; n-- {
		i := rng.Intn(64)
		m := bound / int(q[i])
		coef[i] = int16(rng.Intn(2*m+1) - m)
	}
	coef[0] = int16(rng.Intn(1<<16) - 1<<15) // DC is ignored, any value
	return coef, &q
}

// inGuard reports whether the border kernel must accept the block.
func inGuard(coef []int16, q *[64]uint16) bool {
	for i := 1; i < 64; i++ {
		c := int64(coef[i]) * int64(q[i])
		if c > borderGuard || c < -borderGuard {
			return false
		}
	}
	return true
}

// checkKernel runs the border kernel, when this build has one, against
// inverseBorderGo on dst blocks prefilled with a sentinel: it must accept
// exactly the blocks inside the guard, match the scalar path cell for cell
// (interior included) when it does, and leave dst untouched when it
// refuses.
func checkKernel(t *testing.T, coef []int16, q *[64]uint16) {
	t.Helper()
	if borderKernel == nil {
		return
	}
	var got, want Block
	for i := range got {
		got[i] = int32(0x5a5a0000 + i)
	}
	want = got
	sentinel := got
	ok := borderKernel(coef, q, &got)
	if ok != inGuard(coef, q) {
		t.Fatalf("kernel accepted=%v, guard says %v\ncoef=%v\nq=%v", ok, inGuard(coef, q), coef, q)
	}
	if !ok {
		if got != sentinel {
			t.Fatalf("refused call wrote dst\ncoef=%v\nq=%v\ngot=%v", coef, q, got)
		}
		return
	}
	inverseBorderGo(coef, q, &want)
	if got != want {
		t.Fatalf("kernel diverges from portable path\ncoef=%v\nq=%v\ngot=%v\nwant=%v", coef, q, got, want)
	}
}

// TestInverseBorderParity drives the dispatched InverseBorder against the
// portable implementation across the sparsity spectrum, on blocks around
// the kernel's guard and on full-range ones, where intermediate sums need
// all of int64 and the int32 conversion wraps.
func TestInverseBorderParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 10000; iter++ {
		coef, q := randGuardBlock(rng)
		if iter%2 == 1 {
			coef, q = randCoef(rng, iter%65), randQuant(rng)
		}
		var got, want Block
		InverseBorder(coef, q, &got)
		inverseBorderGo(coef, q, &want)
		if got != want {
			t.Fatalf("iter %d: InverseBorder diverges from portable path\ncoef=%v\nq=%v\ngot=%v\nwant=%v", iter, coef, q, got, want)
		}
	}
}

func TestNonzeroMaskParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 5000; iter++ {
		coef := randCoef(rng, iter%65)
		if got, want := NonzeroMask(coef), nonzeroMaskGo(coef); got != want {
			t.Fatalf("iter %d: NonzeroMask=%#x, portable=%#x, coef=%v", iter, got, want, coef)
		}
	}
}

func TestZigzagMask(t *testing.T) {
	for z := 0; z < 64; z++ {
		if got := ZigzagMask(1 << Zigzag[z]); got != 1<<uint(z) {
			t.Fatalf("ZigzagMask(1<<Zigzag[%d]) = %#x, want %#x", z, got, 1<<uint(z))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 1000; iter++ {
		raster := rng.Uint64()
		var want uint64
		for z := 0; z < 64; z++ {
			if raster&(1<<Zigzag[z]) != 0 {
				want |= 1 << uint(z)
			}
		}
		if got := ZigzagMask(raster); got != want {
			t.Fatalf("ZigzagMask(%#x) = %#x, want %#x", raster, got, want)
		}
	}
}

// FuzzKernelParity cross-checks every SIMD kernel in this package against
// its pure-Go twin on fuzzer-chosen blocks and quantization tables. On
// builds without the kernels the dispatch wrappers are the portable code
// and the comparison is trivially green — the target still runs, so a CI
// matrix with and without asm exercises both sides.
//
// salt picks how the raw coefficients are scaled: salt%4 == 0 keeps them
// full-range (nearly always refused by the border kernel), 1 scales every
// AC coefficient into the kernel's guard, and 2 and 3 do the same and then
// put one AC coefficient exactly at the guard (|c·q| = 12403) or one past
// it (12404).
func FuzzKernelParity(f *testing.F) {
	f.Add(make([]byte, 256), uint8(0))
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	for salt := 0; salt < 4; salt++ {
		f.Add(seed, uint8(salt*65+1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, salt uint8) {
		if len(raw) < 256 {
			return
		}
		coef := make([]int16, 64)
		var q [64]uint16
		for i := 0; i < 64; i++ {
			coef[i] = int16(raw[2*i]) | int16(raw[2*i+1])<<8
			q[i] = uint16(raw[128+i]) | uint16(salt)<<8
		}
		if mode := salt % 4; mode != 0 {
			for i := 1; i < 64; i++ {
				q[i] = max(q[i]&0xff, 1)
				coef[i] %= int16(borderGuard/int(q[i]) + 1)
			}
			if mode >= 2 {
				// 12403 = 79·157 and 12404 = 28·443.
				k := 1 + int(raw[0])%63
				q[k], coef[k] = 79, 157
				if mode == 3 {
					q[k], coef[k] = 28, 443
				}
				if raw[1]&1 != 0 {
					coef[k] = -coef[k]
				}
			}
		}
		var got, want Block
		InverseBorder(coef, &q, &got)
		inverseBorderGo(coef, &q, &want)
		if got != want {
			t.Fatalf("InverseBorder diverges from portable path\ncoef=%v\nq=%v", coef, q)
		}
		checkKernel(t, coef, &q)
		if g, w := NonzeroMask(coef), nonzeroMaskGo(coef); g != w {
			t.Fatalf("NonzeroMask=%#x portable=%#x coef=%v", g, w, coef)
		}
	})
}
