package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter()
	vals := []struct {
		v uint32
		n uint8
	}{
		{0x5, 3}, {0xFF, 8}, {0x0, 1}, {0x1FF, 9}, {0xABCDE, 20}, {1, 1},
	}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	w.AlignPad(1)
	r := NewReader(w.Bytes())
	for _, x := range vals {
		got, err := r.ReadBits(x.n)
		if err != nil {
			t.Fatalf("ReadBits: %v", err)
		}
		if got != x.v {
			t.Fatalf("roundtrip got %#x want %#x (n=%d)", got, x.v, x.n)
		}
	}
}

func TestByteStuffing(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xFF, 8)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0x12, 8)
	got := w.Bytes()
	want := []byte{0xFF, 0x00, 0xFF, 0x00, 0x12}
	if !bytes.Equal(got, want) {
		t.Fatalf("stuffing: got % x want % x", got, want)
	}
	// Reader must remove the stuffing transparently.
	r := NewReader(got)
	for _, want := range []uint32{0xFF, 0xFF, 0x12} {
		v, err := r.ReadBits(8)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if v != want {
			t.Fatalf("unstuff got %#x want %#x", v, want)
		}
	}
}

func TestRawWriterNoStuffing(t *testing.T) {
	w := NewRawWriter()
	w.WriteBits(0xFF, 8)
	if !bytes.Equal(w.Bytes(), []byte{0xFF}) {
		t.Fatalf("raw writer stuffed: % x", w.Bytes())
	}
}

func TestMarkerDetection(t *testing.T) {
	// Data byte, then RST0 marker, then more data.
	data := []byte{0xAB, 0xFF, 0xD0, 0xCD}
	r := NewReader(data)
	if v, _ := r.ReadBits(8); v != 0xAB {
		t.Fatalf("got %#x", v)
	}
	if _, err := r.ReadBit(); err != ErrMarker {
		t.Fatalf("expected ErrMarker, got %v", err)
	}
	at, m := r.AtMarker()
	if !at || m != 0xD0 {
		t.Fatalf("marker = %v %#x", at, m)
	}
	code, err := r.SkipMarker()
	if err != nil || code != 0xD0 {
		t.Fatalf("SkipMarker = %#x, %v", code, err)
	}
	if v, _ := r.ReadBits(8); v != 0xCD {
		t.Fatalf("after marker got %#x", v)
	}
}

func TestTruncation(t *testing.T) {
	r := NewReader([]byte{0x80})
	if _, err := r.ReadBits(9); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestSeedHandover(t *testing.T) {
	// Write 13 bits in one writer; replay the last bits in a writer seeded
	// with the first writer's partial state and verify byte continuity.
	w1 := NewWriter()
	w1.WriteBits(0x1ABC>>3, 10) // first 10 bits
	partial, nbits := w1.Partial()
	if nbits != 2 {
		t.Fatalf("nbits = %d", nbits)
	}
	w2 := NewWriter()
	w2.Seed(partial, nbits)
	w2.WriteBits(0x1ABC&0x7, 3)
	w2.AlignPad(0)

	ref := NewWriter()
	ref.WriteBits(0x1ABC, 13)
	ref.AlignPad(0)
	full := append(append([]byte{}, w1.Bytes()...), w2.Bytes()...)
	if !bytes.Equal(full, ref.Bytes()) {
		t.Fatalf("handover: got % x want % x", full, ref.Bytes())
	}
}

func TestAlignPadAndPartial(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	p, n := w.Partial()
	if n != 3 || p != 0b10100000 {
		t.Fatalf("partial = %#08b n=%d", p, n)
	}
	w.AlignPad(1)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0b10111111 {
		t.Fatalf("padded = % x", got)
	}
}

func TestAlignSkipPad(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b11, 2)
	w.AlignPad(1)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(2); err != nil {
		t.Fatal(err)
	}
	pad, n, err := r.AlignSkipPad()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("pad len = %d", n)
	}
	for _, b := range pad[:n] {
		if b != 1 {
			t.Fatalf("pad bit = %d", b)
		}
	}
}

func TestQuickWriteReadInverse(t *testing.T) {
	f := func(words []uint16, seed int64) bool {
		if len(words) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter()
		var lens []uint8
		for _, v := range words {
			n := uint8(rng.Intn(16) + 1)
			lens = append(lens, n)
			w.WriteBits(uint32(v)&(1<<n-1), n)
		}
		w.AlignPad(1)
		r := NewReader(w.Bytes())
		for i, v := range words {
			got, err := r.ReadBits(lens[i])
			if err != nil {
				return false
			}
			if got != uint32(v)&(1<<lens[i]-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderPosTracking(t *testing.T) {
	// Positions must be raw-stream positions including stuffing bytes.
	w := NewWriter()
	w.WriteBits(0xFF, 8) // emits FF 00
	w.WriteBits(0xA, 4)
	w.AlignPad(0)
	raw := w.Bytes()
	r := NewReader(raw)
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	byteOff, bitOff := r.Pos()
	if byteOff != 2 || bitOff != 0 {
		t.Fatalf("pos after stuffed byte = (%d,%d), want (2,0)", byteOff, bitOff)
	}
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	byteOff, bitOff = r.Pos()
	if byteOff != 2 || bitOff != 3 {
		t.Fatalf("pos = (%d,%d), want (2,3)", byteOff, bitOff)
	}
	if pb := r.PartialByte(); pb != raw[2]&0xE0 {
		t.Fatalf("partial byte = %#x", pb)
	}
}

// TestPeekBitsMatchesReadBit checks the no-0xFF fast path against the exact
// reader on streams dense with 0xFF bytes (stuffing) and partial-byte
// offsets: every successful peek must return exactly the bits ReadBit
// produces, and SkipBits must leave the reader in the identical position.
func TestPeekBitsMatchesReadBit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	w := NewWriter()
	for i := 0; i < 4000; i++ {
		// Bias toward 0xFF-heavy output so stuffing shows up often.
		if rng.Intn(3) == 0 {
			w.WriteBits(0xFF, 8)
		} else {
			w.WriteBits(rng.Uint32(), uint8(rng.Intn(17)))
		}
	}
	w.AlignPad(1)
	data := w.Bytes()

	fast := NewReader(data)
	slow := NewReader(data)
	for {
		n := uint8(rng.Intn(24) + 1)
		v, ok := fast.PeekBits(n)
		var want uint32
		var err error
		for i := uint8(0); i < n; i++ {
			var b uint8
			b, err = slow.ReadBit()
			if err != nil {
				break
			}
			want = want<<1 | uint32(b)
		}
		if err != nil {
			if ok {
				t.Fatalf("peek succeeded where exact read failed: %v", err)
			}
			break
		}
		if ok {
			if v != want {
				t.Fatalf("PeekBits(%d) = %#x, exact read = %#x", n, v, want)
			}
			fast.SkipBits(n)
		} else {
			// Fast path declined (0xFF in window or near end): consume via
			// the exact path to stay in lockstep.
			for i := uint8(0); i < n; i++ {
				if _, err := fast.ReadBit(); err != nil {
					t.Fatalf("exact fallback read: %v", err)
				}
			}
		}
		fp, fb := fast.Pos()
		sp, sb := slow.Pos()
		if fp != sp || fb != sb {
			t.Fatalf("position diverged: fast %d.%d slow %d.%d", fp, fb, sp, sb)
		}
	}
}

// TestPeekBitsRefusesMarker ensures the fast path never reads through a
// marker: a peek whose window touches the 0xFF of a marker must decline.
func TestPeekBitsRefusesMarker(t *testing.T) {
	data := []byte{0x12, 0x34, 0xFF, 0xD0, 0x56, 0x78, 0x9A, 0xBC}
	r := NewReader(data)
	if _, ok := r.PeekBits(16); ok {
		t.Fatal("peek through a marker byte must decline")
	}
	// After consuming the leading data and skipping the marker the fast path
	// applies again.
	if _, err := r.ReadBits(16); err != nil {
		t.Fatalf("pre-marker data: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrMarker {
		t.Fatalf("expected marker, got %v", err)
	}
	if _, err := r.SkipMarker(); err != nil {
		t.Fatal(err)
	}
	v, ok := r.PeekBits(24)
	if !ok || v != 0x56789A {
		t.Fatalf("post-marker peek = %#x ok=%v, want 0x56789a", v, ok)
	}
}
