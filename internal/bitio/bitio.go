// Package bitio provides MSB-first bit readers and writers for JPEG entropy
// streams, including the byte-stuffing rule (a 0x00 byte follows every data
// byte equal to 0xFF), restart-marker alignment, and the partial-byte state
// needed to seed a writer from a Lepton "Huffman handover word".
//
// Reading and writing are batched on the hot path. PeekBits serves up to 24
// bits from a single word load whenever the lookahead window contains no
// 0xFF byte (so no stuffing or marker logic applies), and SkipBits consumes
// a peeked span with one add; the bit-by-bit read path remains the single
// source of truth for every 0xFF-adjacent case. Writer gathers bits in a
// 64-bit accumulator and appends them four bytes at a time when none of the
// four is 0xFF, stuffing byte by byte otherwise.
package bitio

import (
	"errors"
	"io"
)

// ErrMarker is returned by Reader when the entropy stream is interrupted by a
// marker (0xFF followed by a non-zero, non-stuffing byte).
var ErrMarker = errors.New("bitio: marker encountered in entropy stream")

// ErrTruncated is returned when the input ends in the middle of the entropy
// stream.
var ErrTruncated = errors.New("bitio: truncated entropy stream")

// Writer writes bits MSB-first, inserting a 0x00 stuffing byte after every
// emitted 0xFF data byte when stuffing is enabled. Bits gather in a 64-bit
// accumulator and leave it 32 at a time; whole bytes still pending are
// flushed by every method that reads or aligns the output, so callers see
// the same bytes and partial-byte state as a byte-at-a-time writer. The zero
// value is a Writer with stuffing disabled.
type Writer struct {
	buf   []byte
	acc   uint64 // pending bits, MSB-aligned: the top nacc bits
	nacc  uint8  // pending bit count, below 32 between calls
	stuff bool
}

// NewWriter returns a Writer with JPEG byte stuffing enabled.
func NewWriter() *Writer { return &Writer{stuff: true} }

// NewRawWriter returns a Writer with byte stuffing disabled.
func NewRawWriter() *Writer { return &Writer{} }

// Reset clears the writer for reuse, keeping the output buffer's capacity
// and the stuffing mode.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
}

// Grow makes room for n more output bytes, so a caller that knows its
// output size allocates the buffer once instead of growing it by append.
func (w *Writer) Grow(n int) {
	if n > cap(w.buf)-len(w.buf) {
		w.buf = append(make([]byte, 0, len(w.buf)+n), w.buf...)
	}
}

// Seed initializes the writer's partial-byte state from a Huffman handover
// word: the first nbits bits of partial (counted from the MSB) have already
// been decided by the previous segment. Seed must be called before any bits
// are written.
func (w *Writer) Seed(partial uint8, nbits uint8) {
	w.acc = uint64(partial>>(8-nbits)) << (64 - nbits)
	w.nacc = nbits
}

// WriteBits writes the low n bits of v, most significant first. n must be
// at most 32 and may be 0. Once 32 bits are pending they go out as one
// 4-byte append, or byte by byte when one of them is a stuffed 0xFF.
func (w *Writer) WriteBits(v uint32, n uint8) {
	w.acc |= uint64(v) << (64 - n) >> w.nacc
	w.nacc += n
	if w.nacc >= 32 {
		w.put32()
	}
}

// put32 emits the oldest 32 of the pending bits.
func (w *Writer) put32() {
	x := uint32(w.acc >> 32)
	w.acc <<= 32
	w.nacc -= 32
	// (^x - 0x01..) & x & 0x80.. is nonzero iff some byte of ^x is zero,
	// that is, iff some byte of x is 0xFF.
	if w.stuff && (^x-0x01010101)&x&0x80808080 != 0 {
		for s := 24; s >= 0; s -= 8 {
			w.emit(byte(x >> s))
		}
		return
	}
	w.buf = append(w.buf, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
}

func (w *Writer) emit(b byte) {
	w.buf = append(w.buf, b)
	if w.stuff && b == 0xFF {
		w.buf = append(w.buf, 0x00)
	}
}

// flush emits the whole bytes still pending, leaving fewer than 8 bits.
func (w *Writer) flush() {
	for w.nacc >= 8 {
		w.emit(byte(w.acc >> 56))
		w.acc <<= 8
		w.nacc -= 8
	}
}

// BitLen returns the number of bits written so far: the output bytes,
// stuffing included, times eight plus the bits still pending. It does not
// flush, and it counts exactly the data bits only on an unstuffed writer.
func (w *Writer) BitLen() int64 { return int64(len(w.buf))*8 + int64(w.nacc) }

// AlignPad pads the current byte to a boundary using the given pad bit
// (0 or 1), as a JPEG encoder does before a restart marker or EOI.
func (w *Writer) AlignPad(padBit uint8) {
	w.flush()
	if w.nacc != 0 {
		w.acc |= uint64(padBit&1) * uint64(0xFF>>w.nacc) << 56
		w.nacc = 8
		w.flush()
	}
}

// WriteMarker emits a two-byte marker (0xFF, code) without stuffing. The
// writer must be byte-aligned.
func (w *Writer) WriteMarker(code byte) {
	if !w.Aligned() {
		panic("bitio: WriteMarker on unaligned writer")
	}
	w.flush()
	w.buf = append(w.buf, 0xFF, code)
}

// AppendRaw appends bytes verbatim (no stuffing). The writer must be
// byte-aligned; used to reproduce arbitrary prepend/append data recorded in
// a Lepton container.
func (w *Writer) AppendRaw(b []byte) {
	if !w.Aligned() {
		panic("bitio: AppendRaw on unaligned writer")
	}
	w.flush()
	w.buf = append(w.buf, b...)
}

// Bytes returns the completed output bytes. The partial byte, if any, is not
// included; use Partial to retrieve it.
func (w *Writer) Bytes() []byte {
	w.flush()
	return w.buf
}

// Len returns the number of completed output bytes.
func (w *Writer) Len() int {
	w.flush()
	return len(w.buf)
}

// Partial returns the current partial byte, MSB-aligned, and the number of
// bits in it.
func (w *Writer) Partial() (partial uint8, nbits uint8) {
	w.flush()
	return uint8(w.acc >> 56), w.nacc
}

// Aligned reports whether the writer is at a byte boundary.
func (w *Writer) Aligned() bool { return w.nacc&7 == 0 }

// Reader reads bits MSB-first from a JPEG entropy stream, transparently
// removing 0x00 stuffing bytes after 0xFF. When it encounters a marker it
// stops and returns ErrMarker from the next read.
type Reader struct {
	data []byte
	pos  int   // index of the byte containing the next unread bit
	bit  uint8 // next bit within data[pos] (0 = MSB)
	// ffAt is the 0xFF watermark: the index of the next 0xFF byte at or
	// after pos, or len(data) when none remains. It turns PeekBits'
	// four-byte window scan into a single compare (pos+4 <= ffAt means the
	// window is clean). A value below pos is stale — pos moved past it —
	// and refill rescans from pos with the bulk indexFF kernel; each
	// rescan ends where the next one starts, so the total scan work stays
	// O(len(data)) across the whole stream.
	ffAt int
	// marker handling
	atMarker bool
	marker   byte
}

// NewReader returns a Reader over the entropy-coded segment in data.
func NewReader(data []byte) *Reader { return &Reader{data: data, ffAt: -1} }

// Pos returns the raw-stream position of the next unread bit: the byte index
// (including stuffing bytes) and the bit offset within that byte. This is the
// position recorded in Huffman handover words.
func (r *Reader) Pos() (byteOff int, bitOff uint8) { return r.pos, r.bit }

// PartialByte returns the bits of the current byte that have already been
// consumed, left-aligned, with the remaining bits zeroed. Together with Pos
// this is the handover partial byte.
func (r *Reader) PartialByte() uint8 {
	if r.bit == 0 || r.pos >= len(r.data) {
		return 0
	}
	return r.data[r.pos] & (^uint8(0) << (8 - r.bit))
}

// ReadBit reads one bit. It returns ErrMarker if a marker interrupts the
// stream and ErrTruncated at end of input. A 0xFF data byte is always
// followed by a 0x00 stuffing byte; a 0xFF followed by anything else is a
// marker and none of its bits are consumed as data.
func (r *Reader) ReadBit() (uint8, error) {
	if r.atMarker {
		return 0, ErrMarker
	}
	if r.pos >= len(r.data) {
		return 0, ErrTruncated
	}
	if r.bit == 0 && r.data[r.pos] == 0xFF {
		// Starting a new byte: distinguish stuffed data from a marker.
		if r.pos+1 >= len(r.data) {
			return 0, ErrTruncated
		}
		if r.data[r.pos+1] != 0x00 {
			r.atMarker = true
			r.marker = r.data[r.pos+1]
			return 0, ErrMarker
		}
	}
	b := r.data[r.pos]
	bit := (b >> (7 - r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
		if b == 0xFF {
			r.pos++ // skip the 0x00 stuffing byte verified above
		}
	}
	return bit, nil
}

// PeekBits returns the next n (0..24) bits of the entropy stream MSB-first
// without consuming them. ok is false whenever the fast path cannot serve
// the request exactly — at a pending marker, near the end of input, or when
// any byte of the 4-byte lookahead window is 0xFF (stuffing or marker
// handling would apply) — and the caller must fall back to the bit-by-bit
// path, which is the single source of truth for those cases. After a
// successful peek, SkipBits(m) is valid for any m <= n.
func (r *Reader) PeekBits(n uint8) (v uint32, ok bool) {
	if r.pos+4 > r.ffAt {
		if !r.refill() {
			return 0, false
		}
	}
	d := r.data[r.pos : r.pos+4 : r.pos+4]
	w := uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
	return w << r.bit >> (32 - n), true
}

// refill is PeekBits' slow path: it re-establishes the 0xFF watermark when
// the reader has moved past it and reports whether the four-byte window at
// pos is clean. ffAt <= len(data) always holds, so a true return also
// guarantees the window is in bounds.
func (r *Reader) refill() bool {
	if r.atMarker || r.pos+4 > len(r.data) {
		return false
	}
	if r.ffAt < r.pos {
		r.ffAt = r.pos + indexFF(r.data[r.pos:])
	}
	return r.pos+4 <= r.ffAt
}

// SkipBits consumes n bits previously returned by a successful PeekBits.
// It must only follow a successful PeekBits(m) with n <= m: the single-add
// advance relies on the peeked span containing no 0xFF bytes.
func (r *Reader) SkipBits(n uint8) {
	t := r.bit + n
	r.pos += int(t >> 3)
	r.bit = t & 7
}

// ReadBits reads n bits MSB-first. n must be <= 32.
func (r *Reader) ReadBits(n uint8) (uint32, error) {
	if n <= 24 {
		if v, ok := r.PeekBits(n); ok {
			r.SkipBits(n)
			return v, nil
		}
	}
	var v uint32
	for i := uint8(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// AtMarker reports whether the reader has stopped at a marker, and returns
// the marker code (the byte following 0xFF).
func (r *Reader) AtMarker() (bool, byte) { return r.atMarker, r.marker }

// AlignSkipPad consumes pad bits up to the next byte boundary and returns
// them by value: bits[:n] holds the (at most 7) pad bits observed. JPEG
// encoders pad with all-zero or all-one bits; the caller inspects the
// returned bits to detect the pad bit in use. The by-value return keeps
// this allocation-free — it runs once per restart marker, which dominated
// the decode loop's allocation count when it returned a heap slice.
func (r *Reader) AlignSkipPad() (bits [7]uint8, n int, err error) {
	for r.bit != 0 {
		b, err := r.ReadBit()
		if err != nil {
			return bits, n, err
		}
		bits[n] = b
		n++
	}
	return bits, n, nil
}

// SkipMarker consumes the pending marker (0xFF plus code byte), allowing the
// entropy stream to continue (used for restart markers). It returns the
// marker code.
func (r *Reader) SkipMarker() (byte, error) {
	if !r.atMarker {
		return 0, errors.New("bitio: SkipMarker with no pending marker")
	}
	if r.pos+1 >= len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	code := r.data[r.pos+1]
	r.pos += 2
	r.bit = 0
	r.atMarker = false
	r.marker = 0
	return code, nil
}

// Remaining returns the unread suffix of the underlying data, beginning at
// the current byte. When stopped at a marker the suffix starts at the
// marker's 0xFF byte.
func (r *Reader) Remaining() []byte { return r.data[r.pos:] }
