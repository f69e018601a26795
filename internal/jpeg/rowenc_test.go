package jpeg

import (
	"bytes"
	"math/rand"
	"testing"

	"lepton/internal/bitio"
)

// TestCopyBitsMatchesBitLoop stitches random spans of random raw queues
// with copyBits and with a one-bit-per-write copy, into a stuffed and an
// unstuffed destination, and requires identical output and cursors. Spans
// include n = 0, n > 32, starts inside a byte and ends inside the queue's
// last, partial byte.
func TestCopyBitsMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for run := 0; run < 300; run++ {
		q := bitio.NewRawWriter()
		var qbits []uint8
		for i, nw := 0, rng.Intn(200); i < nw; i++ {
			v, n := rng.Uint32(), uint8(rng.Intn(33))
			if rng.Intn(3) == 0 {
				v = ^uint32(0)
			}
			q.WriteBits(v, n)
			for j := int(n) - 1; j >= 0; j-- {
				qbits = append(qbits, uint8(v>>j)&1)
			}
		}
		total := q.BitLen()
		whole := int64(q.Len()) * 8
		src := seal(q)

		for _, stuff := range []bool{true, false} {
			fast, slow := bitio.NewRawWriter(), bitio.NewRawWriter()
			if stuff {
				fast, slow = bitio.NewWriter(), bitio.NewWriter()
			}
			lead := uint8(rng.Intn(8))
			fast.WriteBits(0x5A, lead)
			slow.WriteBits(0x5A, lead)
			for k := 0; k < 40; k++ {
				pos := rng.Int63n(total + 1)
				end := pos + rng.Int63n(total-pos+1)
				switch k % 5 {
				case 0:
					end = pos
				case 1: // start mid-byte
					pos = min(pos|3, total)
					end = max(end, pos)
				case 2: // end inside the partial byte
					if total > whole {
						end = whole + 1 + rng.Int63n(total-whole)
						pos = min(pos, end)
					}
				case 3: // more than one 32-bit write
					if end-pos <= 32 {
						end = min(total, pos+33+rng.Int63n(64))
					}
				}
				n := uint32(end - pos)
				p := pos
				copyBits(fast, src, &p, n)
				if p != pos+int64(n) {
					t.Fatalf("run %d: cursor %d after copying %d bits from %d", run, p, n, pos)
				}
				for _, b := range qbits[pos : pos+int64(n)] {
					slow.WriteBits(uint32(b), 1)
				}
			}
			fast.AlignPad(1)
			slow.AlignPad(1)
			if !bytes.Equal(fast.Bytes(), slow.Bytes()) {
				t.Fatalf("run %d stuff=%v: copyBits output differs from the bit loop", run, stuff)
			}
		}
	}
}

// TestCategoryMatchesShiftLoop checks category against the shift loop it
// replaced, and valueBits against the branch on the sign it replaced, for
// every |v| <= 65535.
func TestCategoryMatchesShiftLoop(t *testing.T) {
	for v := int32(-65535); v <= 65535; v++ {
		a := v
		if a < 0 {
			a = -a
		}
		var want uint8
		for ; a != 0; a >>= 1 {
			want++
		}
		if got := category(v); got != want {
			t.Fatalf("category(%d) = %d, want %d", v, got, want)
		}
		wantBits := v
		if v < 0 {
			wantBits += int32(1<<want) - 1
		}
		if s, b := valueBits(v); s != want || b != uint32(wantBits) {
			t.Fatalf("valueBits(%d) = (%d, %#x), want (%d, %#x)", v, s, b, want, wantBits)
		}
	}
}
