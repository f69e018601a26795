//go:build amd64 && !noasm

package dct

import (
	"math/rand"
	"testing"
)

func init() {
	if useAVX2 {
		borderKernel = func(coef []int16, q *[64]uint16, dst *Block) bool {
			return inverseBorderI16(&coef[0], q, dst)
		}
	}
}

// TestInverseBorderAVX2Direct runs the int16 kernel itself, not the
// dispatch, on 100k random blocks spanning its guard and on every
// single-coefficient block at the guard and one past it: it must accept
// exactly the blocks inside, equal inverseBorderGo on them, and leave dst
// untouched on the rest.
func TestInverseBorderAVX2Direct(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100000; iter++ {
		coef, q := randGuardBlock(rng)
		checkKernel(t, coef, q)
	}
	var ones [64]uint16
	for i := range ones {
		ones[i] = 1
	}
	for pos := 1; pos < 64; pos++ {
		for _, v := range []int16{borderGuard, -borderGuard, borderGuard + 1, -borderGuard - 1} {
			coef := make([]int16, 64)
			coef[pos] = v
			checkKernel(t, coef, &ones)
			var got, want Block
			InverseBorder(coef, &ones, &got)
			inverseBorderGo(coef, &ones, &want)
			if got != want {
				t.Fatalf("pos %d value %d: InverseBorder diverges from portable path", pos, v)
			}
		}
	}
}

// TestInverseBorderAVX2Extremes pins the overflow corners: saturated
// coefficients against saturated quantizers drive column sums past 2^45
// and the int32 intermediate conversion into wraparound. The int16 kernel
// must refuse them, and the dispatched InverseBorder must still match the
// scalar int64 arithmetic exactly.
func TestInverseBorderAVX2Extremes(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	var q [64]uint16
	for i := range q {
		q[i] = 65535
	}
	for i, fill := range []func(int) int16{
		func(int) int16 { return 32767 },
		func(int) int16 { return -32768 },
		func(i int) int16 { return int16(32767 + i%2) }, // alternates 32767, -32768
	} {
		coef := make([]int16, 64)
		for j := range coef {
			coef[j] = fill(j)
		}
		var got, want Block
		if inverseBorderI16(&coef[0], &q, &got) {
			t.Fatalf("extreme case %d: kernel accepted an out-of-guard block", i)
		}
		InverseBorder(coef, &q, &got)
		inverseBorderGo(coef, &q, &want)
		if got != want {
			t.Fatalf("extreme case %d: InverseBorder diverges\ngot=%v\nwant=%v", i, got, want)
		}
	}
}
