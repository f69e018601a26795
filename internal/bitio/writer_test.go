package bitio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refWriter is the byte-at-a-time writer the accumulator Writer replaced:
// each WriteBits fills the partial byte and emits (and stuffs) every byte
// as soon as it completes. It is the oracle for Writer's output and its
// partial-byte state.
type refWriter struct {
	buf   []byte
	cur   uint8
	nbits uint8
	stuff bool
}

func (w *refWriter) Seed(partial uint8, nbits uint8) {
	w.cur = partial & (^uint8(0) << (8 - nbits) & 0xFF)
	if nbits == 0 {
		w.cur = 0
	}
	w.nbits = nbits
}

func (w *refWriter) emit(b byte) {
	w.buf = append(w.buf, b)
	if w.stuff && b == 0xFF {
		w.buf = append(w.buf, 0x00)
	}
}

func (w *refWriter) WriteBit(bit uint8) {
	w.cur |= (bit & 1) << (7 - w.nbits)
	w.nbits++
	if w.nbits == 8 {
		w.emit(w.cur)
		w.cur, w.nbits = 0, 0
	}
}

func (w *refWriter) WriteBits(v uint32, n uint8) {
	if n == 0 {
		return
	}
	if n < 32 {
		v &= 1<<n - 1
	}
	for {
		free := 8 - w.nbits
		if n < free {
			w.cur |= uint8(v << (free - n))
			w.nbits += n
			return
		}
		w.emit(w.cur | uint8(v>>(n-free)))
		w.cur, w.nbits = 0, 0
		n -= free
		if n == 0 {
			return
		}
	}
}

func (w *refWriter) AlignPad(padBit uint8) {
	for w.nbits != 0 {
		w.WriteBit(padBit)
	}
}

func (w *refWriter) WriteMarker(code byte) { w.buf = append(w.buf, 0xFF, code) }
func (w *refWriter) AppendRaw(b []byte)    { w.buf = append(w.buf, b...) }

// runWriterOps interprets ops as a sequence of writer calls, applies each
// to a Writer and to a refWriter, and fails on the first difference in
// output bytes, length, partial byte, alignment or bit length. The first
// byte picks the stuffing mode and the initial Seed; a short ops reads as
// if padded with zeros.
func runWriterOps(t *testing.T, ops []byte) {
	t.Helper()
	i := 0
	next := func() byte {
		if i >= len(ops) {
			i++
			return 0
		}
		i++
		return ops[i-1]
	}
	head := next()
	stuff := head&1 == 1
	w, ref := &Writer{stuff: stuff}, &refWriter{stuff: stuff}
	seed := func() {
		p, n := next(), next()%8
		w.Seed(p, n)
		ref.Seed(p, n)
	}
	compare := func(step int, what string) {
		t.Helper()
		if !stuff {
			if got, want := w.BitLen(), int64(len(ref.buf))*8+int64(ref.nbits); got != want {
				t.Fatalf("step %d (%s): BitLen %d, want %d", step, what, got, want)
			}
		}
		if got, want := w.Aligned(), ref.nbits == 0; got != want {
			t.Fatalf("step %d (%s): Aligned %v, want %v", step, what, got, want)
		}
		if got, want := w.Len(), len(ref.buf); got != want {
			t.Fatalf("step %d (%s): Len %d, want %d", step, what, got, want)
		}
		if got, want := w.BitLen(), int64(len(ref.buf))*8+int64(ref.nbits); got != want {
			t.Fatalf("step %d (%s): BitLen after Len %d, want %d", step, what, got, want)
		}
		if p, n := w.Partial(); p != ref.cur || n != ref.nbits {
			t.Fatalf("step %d (%s): Partial (%#02x, %d), want (%#02x, %d)", step, what, p, n, ref.cur, ref.nbits)
		}
		if !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("step %d (%s): Bytes\n got % x\nwant % x", step, what, w.Bytes(), ref.buf)
		}
	}
	seed()
	for step := 0; i < len(ops); step++ {
		switch op := next() % 9; op {
		case 0, 1, 2, 3:
			n := next() % 33
			var b [4]byte
			for k := range b {
				b[k] = next()
			}
			v := binary.BigEndian.Uint32(b[:])
			w.WriteBits(v, n)
			ref.WriteBits(v, n)
		case 4:
			pad := next() & 1
			w.AlignPad(pad)
			ref.AlignPad(pad)
			compare(step, "AlignPad")
		case 5, 6:
			// Markers and raw bytes need a byte boundary; pad first
			// when the writers are not on one.
			pad := next()
			if ref.nbits != 0 {
				w.AlignPad(pad & 1)
				ref.AlignPad(pad & 1)
			}
			if op == 5 {
				w.WriteMarker(pad)
				ref.WriteMarker(pad)
				break
			}
			raw := make([]byte, pad%8)
			for k := range raw {
				raw[k] = next()
			}
			w.AppendRaw(raw)
			ref.AppendRaw(raw)
		case 7:
			compare(step, "read")
		case 8:
			compare(step, "before Reset")
			w.Reset()
			ref.buf, ref.cur, ref.nbits = ref.buf[:0], 0, 0
			seed()
		}
	}
	compare(-1, "end")
	w.AlignPad(1)
	ref.AlignPad(1)
	compare(-1, "final AlignPad")
}

// TestWriterMatchesRefWriter drives Writer and the byte-at-a-time
// refWriter with random op sequences: writes of 0..32 bits with garbage
// above bit n, Seed after Reset, AlignPad with either pad bit, markers, raw
// bytes and reads of Partial/Len/Bytes/BitLen in between, in both
// stuffing modes. Half of all value bytes are 0xFF, so stuffing and the
// per-byte fallback run often.
func TestWriterMatchesRefWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for run := 0; run < 400; run++ {
		ops := make([]byte, 64+rng.Intn(4096))
		for k := range ops {
			if rng.Intn(2) == 0 {
				ops[k] = 0xFF
			} else {
				ops[k] = byte(rng.Intn(256))
			}
		}
		ops[0] = byte(run) // alternate the stuffing mode
		runWriterOps(t, ops)
	}
}

// FuzzWriterParity turns arbitrary bytes into writer op sequences (see
// runWriterOps) and holds Writer to the byte-at-a-time refWriter.
func FuzzWriterParity(f *testing.F) {
	f.Add([]byte{1, 0xA0, 3, 0, 32, 0xFF, 0xFF, 0xFF, 0xFF, 7, 4, 1})
	f.Add([]byte{0, 0, 0, 1, 17, 0x12, 0x34, 0x56, 0x78, 5, 0xD0, 6, 3, 0xFF, 0, 1, 8, 0xC0, 2})
	f.Add(bytes.Repeat([]byte{3, 31, 0xFF, 0xFF, 0xFF, 0xFF, 7}, 12))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runWriterOps(t, ops)
	})
}
