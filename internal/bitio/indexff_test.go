package bitio

import (
	"bytes"
	"testing"
)

func naiveIndexFF(b []byte) int {
	for i, c := range b {
		if c == 0xFF {
			return i
		}
	}
	return len(b)
}

func TestIndexFF(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xFF},
		{0x00},
		bytes.Repeat([]byte{0xAB}, 31),
		bytes.Repeat([]byte{0xAB}, 32),
		bytes.Repeat([]byte{0xAB}, 33),
		append(bytes.Repeat([]byte{0x00}, 31), 0xFF),
		append(bytes.Repeat([]byte{0x00}, 32), 0xFF),
		append(bytes.Repeat([]byte{0x00}, 33), 0xFF),
		append(bytes.Repeat([]byte{0x00}, 100), 0xFF, 0xFF),
	}
	for i := 0; i < 200; i++ {
		b := make([]byte, i)
		for j := range b {
			b[j] = byte(j * 7)
		}
		cases = append(cases, b)
		if i > 0 {
			c := append([]byte(nil), b...)
			c[i*13%len(c)] = 0xFF
			cases = append(cases, c)
		}
	}
	for i, c := range cases {
		if got, want := indexFF(c), naiveIndexFF(c); got != want {
			t.Fatalf("case %d (len %d): indexFF=%d want %d", i, len(c), got, want)
		}
		if got, want := indexFFGo(c), naiveIndexFF(c); got != want {
			t.Fatalf("case %d (len %d): indexFFGo=%d want %d", i, len(c), got, want)
		}
	}
}

// TestAppendRaw checks that AppendRaw copies bytes verbatim, 0xFF
// included, in both stuffing modes, after whole bytes written as bits.
func TestAppendRaw(t *testing.T) {
	for _, w := range []*Writer{NewWriter(), NewRawWriter()} {
		w.WriteBits(0x12, 8)
		w.AppendRaw([]byte{0xFF, 0xD9, 3})
		w.AppendRaw(nil)
		if got := w.Bytes(); !bytes.Equal(got, []byte{0x12, 0xFF, 0xD9, 3}) {
			t.Fatalf("stuff=%v: bytes = % x", w.stuff, got)
		}
	}
}

// FuzzKernelParity cross-checks the bulk 0xFF scan against a byte loop and
// the watermarked PeekBits reader against the bit-by-bit path on arbitrary
// (stuffed, marker-laden, truncated) streams.
func FuzzKernelParity(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0xFF, 0x00, 0x56, 0xFF, 0xD9})
	f.Add(bytes.Repeat([]byte{0xFF, 0x00}, 40))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := indexFF(data), naiveIndexFF(data); got != want {
			t.Fatalf("indexFF=%d want %d", got, want)
		}
		// Drive two readers over the same stream: one through the batched
		// PeekBits/ReadBits fast path, one strictly bit-by-bit. Every read
		// and error must agree.
		fast := NewReader(data)
		slow := NewReader(data)
		for step := 0; ; step++ {
			n := uint8(1 + step*7%24)
			fv, ferr := fast.ReadBits(n)
			var sv uint32
			var serr error
			for i := uint8(0); i < n; i++ {
				var b uint8
				b, serr = slow.ReadBit()
				if serr != nil {
					break
				}
				sv = sv<<1 | uint32(b)
			}
			if (ferr != nil) != (serr != nil) {
				t.Fatalf("step %d: fast err=%v slow err=%v", step, ferr, serr)
			}
			if ferr != nil {
				if ferr != serr {
					t.Fatalf("step %d: fast err=%v slow err=%v", step, ferr, serr)
				}
				break
			}
			if fv != sv {
				t.Fatalf("step %d: fast=%#x slow=%#x (n=%d)", step, fv, sv, n)
			}
		}
	})
}
