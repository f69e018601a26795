// Package core implements the Lepton container format (paper Appendix A.1)
// and the encode/decode engine: thread segmentation, Huffman handover words,
// and round-trip verification. It sits on top of the jpeg, model, and arith
// substrates and below the public API and the 4-MiB chunk layer.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lepton/internal/jpeg"
)

// Container wire constants (A.1).
const (
	Magic0 = 0xCF
	Magic1 = 0x84

	// Version is the container version the encoder writes: every thread
	// segment is coded in MCU-row order (all components of MCU row r,
	// then row r+1), so a range decode stops at the last MCU row it
	// needs. VersionPlanar containers code each segment component by
	// component (every Y row, then Cb, then Cr); they still decode, but
	// nothing writes them any more.
	Version       = 0x02
	VersionPlanar = 0x01

	// ModeLepton marks an arithmetic-coded baseline JPEG payload; ModeRaw
	// marks a deflate-compressed verbatim payload (the production fallback
	// for chunks Lepton cannot handle, §5.7); ModeProgressive marks an
	// arithmetic-coded spectral-selection progressive JPEG. Progressive
	// containers are decode-only: the encoder refuses progressive input,
	// as production did (§6.2), but those an earlier opt-in wrote still
	// decode.
	ModeLepton      = 'Z'
	ModeRaw         = 'R'
	ModeProgressive = 'P'
)

// BuildRevision plays the role of the truncated git revision in the header
// (12 bytes).
var BuildRevision = [12]byte{'l', 'e', 'p', 't', 'o', 'n', '-', 'g', 'o', '0', '0', '1'}

// Handover is the Huffman handover word for one thread segment or chunk:
// everything a JPEG writer needs to resume mid-stream, mid-symbol (§3.4).
type Handover struct {
	BitOff  uint8
	Partial uint8
	RSTSeen uint32
	PrevDC  [jpeg.MaxComponents]int16
}

func handoverFromPos(p jpeg.MCUPos) Handover {
	return Handover{BitOff: p.BitOff, Partial: p.Partial, RSTSeen: uint32(p.RSTSeen), PrevDC: p.PrevDC}
}

func (h Handover) toPos(byteOff int64) jpeg.MCUPos {
	return jpeg.MCUPos{ByteOff: byteOff, BitOff: h.BitOff, Partial: h.Partial,
		RSTSeen: int32(h.RSTSeen), PrevDC: h.PrevDC}
}

// Segment describes one thread segment of arithmetic-coded data.
type Segment struct {
	StartMCU uint32
	Handover Handover
	// ArithLen is the length of this segment's arithmetic stream in the
	// container body.
	ArithLen uint32
}

// Container is the parsed Lepton file.
type Container struct {
	// Version is the container version byte, which fixes the segment
	// traversal order: Unmarshal records it, and Marshal writes it, or
	// Version when it is zero.
	Version byte
	Mode    byte

	// OutputSize is the exact byte length of the reconstructed output.
	OutputSize uint32

	// Raw payload (ModeRaw only).
	Raw []byte

	// ModeLepton fields.
	JPEGHeader []byte // verbatim SOI..SOS header
	Trailer    []byte // verbatim bytes after the scan (EOI onward)
	Prepend    []byte // verbatim bytes emitted before this piece's scan data
	Tail       []byte // verbatim garbage between last MCU and scan end
	PadBit     uint8
	EmitHeader bool // output begins with JPEGHeader
	EmitTail   bool // output includes Tail and Trailer after the scan
	// ModelFlags records the predictor configuration the stream was encoded
	// with (bit 0: edge prediction, bit 1: DC gradient); the decoder's model
	// must match bit for bit.
	ModelFlags uint8
	RSTCount   uint32
	MCUStart   uint32
	MCUEnd     uint32
	Segments   []Segment
	// Streams holds each segment's arithmetic-coded bytes.
	Streams [][]byte
	// SeekIndex, when non-nil, is the per-MCU-row handover table enabling
	// range decode (see seekindex.go): entry r is the scan position at the
	// start of MCU row MCUStart/MCUsWide + r. It rides an optional trailing
	// section after the streams; containers without one (all pre-index
	// files, progressive/raw modes) decode exactly as before and ranges
	// fall back to whole-segment decodes.
	SeekIndex []jpeg.MCUPos
	// ProgScans describes each scan of a progressive file
	// (ModeProgressive only).
	ProgScans []ProgScanMeta
}

// ProgScanMeta records everything needed to regenerate one progressive
// scan: its verbatim inter-scan header bytes and the entropy parameters
// the decoder observed.
type ProgScanMeta struct {
	HeaderBytes []byte
	Comps       []byte // frame component indices
	Sel         []byte // per-component Td<<4|Ta selectors
	Ss, Se      uint8
	PadBit      uint8
	RSTCount    uint32
	Tail        []byte
}

// ErrBadContainer reports a malformed Lepton file.
var ErrBadContainer = errors.New("core: malformed Lepton container")

func badContainer(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadContainer, fmt.Sprintf(format, args...))
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putBytes(b *bytes.Buffer, p []byte) {
	putU32(b, uint32(len(p)))
	b.Write(p)
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) u8() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.err = badContainer("truncated at %d", r.pos)
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *reader) u16() uint16 {
	lo := r.u8()
	hi := r.u8()
	return uint16(lo) | uint16(hi)<<8
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.pos+4 > len(r.data) {
		r.err = badContainer("truncated at %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = badContainer("length %d overruns buffer", n)
		return nil
	}
	v := r.data[r.pos : r.pos+n]
	r.pos += n
	return v
}

// Marshal serializes the container with a fresh codec's scratch; callers
// holding a Codec use its MarshalContainer.
func (c *Container) Marshal() ([]byte, error) { return c.marshal(NewCodec()) }

// marshal serializes the container, drawing scratch buffers and the zlib
// header compressor from p's pools.
func (c *Container) marshal(p *Codec) ([]byte, error) {
	head := p.getBuf()
	defer p.putBuf(head)
	head.WriteByte(c.Mode)
	if c.Mode == ModeRaw {
		putBytes(head, c.Raw)
	} else {
		putBytes(head, c.JPEGHeader)
		putBytes(head, c.Trailer)
		putBytes(head, c.Prepend)
		putBytes(head, c.Tail)
		head.WriteByte(c.PadBit)
		head.WriteByte(boolByte(c.EmitHeader))
		head.WriteByte(boolByte(c.EmitTail))
		head.WriteByte(c.ModelFlags)
		putU32(head, c.RSTCount)
		putU32(head, c.MCUStart)
		putU32(head, c.MCUEnd)
		putU32(head, uint32(len(c.Segments)))
		for _, s := range c.Segments {
			putU32(head, s.StartMCU)
			head.WriteByte(s.Handover.BitOff)
			head.WriteByte(s.Handover.Partial)
			putU32(head, s.Handover.RSTSeen)
			for _, dc := range s.Handover.PrevDC {
				head.WriteByte(byte(uint16(dc)))
				head.WriteByte(byte(uint16(dc) >> 8))
			}
			putU32(head, s.ArithLen)
		}
		if c.Mode == ModeProgressive {
			putU32(head, uint32(len(c.ProgScans)))
			for _, ps := range c.ProgScans {
				putBytes(head, ps.HeaderBytes)
				putBytes(head, ps.Comps)
				putBytes(head, ps.Sel)
				head.WriteByte(ps.Ss)
				head.WriteByte(ps.Se)
				head.WriteByte(ps.PadBit)
				putU32(head, ps.RSTCount)
				putBytes(head, ps.Tail)
			}
		}
	}

	z := p.getBuf()
	defer p.putBuf(z)
	zw := p.getZlibW(z)
	if _, err := zw.Write(head.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	p.putZlibW(zw)

	// Every section's length is known now, so the output is allocated once.
	n := 28 + z.Len()
	for _, s := range c.Streams {
		n += len(s)
	}
	index := len(c.SeekIndex) > 0 && c.Mode == ModeLepton
	if index {
		n += seekIndexSize(len(c.SeekIndex))
	}
	out := make([]byte, 0, n)
	out = append(out, Magic0, Magic1, c.version(), c.Mode)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.Segments)))
	out = append(out, BuildRevision[:]...)
	out = binary.LittleEndian.AppendUint32(out, c.OutputSize)
	out = binary.LittleEndian.AppendUint32(out, uint32(z.Len()))
	out = append(out, z.Bytes()...)
	for _, s := range c.Streams {
		out = append(out, s...)
	}
	if index {
		// Trailing section: invisible to the stream-length-driven reader,
		// so index-less decoders (and old binaries) are unaffected.
		out = appendSeekIndex(out, c.SeekIndex)
	}
	return out, nil
}

// version returns the version byte the container is written with.
func (c *Container) version() byte {
	if c.Version == 0 {
		return Version
	}
	return c.Version
}

// turnRows returns component ci's model.ComponentPlane.TurnRows for a
// container of the given version: its rows per MCU row for MCU-row order,
// or 0 (one turn per component) for planar VersionPlanar segments.
func turnRows(f *jpeg.File, ci int, version byte) int {
	if version == VersionPlanar {
		return 0
	}
	return vEff(f, ci)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// flagsByte packs model flags into the container representation.
func flagsByte(edge, dcGradient bool) uint8 {
	var v uint8
	if edge {
		v |= 1
	}
	if dcGradient {
		v |= 2
	}
	return v
}

// Unmarshal parses a serialized container.
func Unmarshal(data []byte) (*Container, error) {
	c, _, err := unmarshal(data, NewCodec())
	return c, err
}

// unmarshal parses a serialized container, drawing the zlib reader and the
// decompressed-header buffer from p's pools. The returned Container aliases
// the returned buffer's storage; the caller must p.putBuf it only once the
// container is dead.
func unmarshal(data []byte, p *Codec) (*Container, *bytes.Buffer, error) {
	if len(data) < 28 {
		return nil, nil, badContainer("too short: %d bytes", len(data))
	}
	if data[0] != Magic0 || data[1] != Magic1 {
		return nil, nil, badContainer("bad magic %#02x %#02x", data[0], data[1])
	}
	if data[2] != Version && data[2] != VersionPlanar {
		return nil, nil, badContainer("unsupported version %d", data[2])
	}
	c := &Container{Version: data[2], Mode: data[3]}
	if c.Mode != ModeLepton && c.Mode != ModeRaw && c.Mode != ModeProgressive {
		return nil, nil, badContainer("unknown mode %#02x", c.Mode)
	}
	nSeg := binary.LittleEndian.Uint32(data[4:])
	c.OutputSize = binary.LittleEndian.Uint32(data[20:])
	zlen := binary.LittleEndian.Uint32(data[24:])
	if 28+int(zlen) > len(data) {
		return nil, nil, badContainer("zlib section overruns file")
	}
	zr, err := p.getZlibR(bytes.NewReader(data[28 : 28+zlen]))
	if err != nil {
		return nil, nil, badContainer("zlib: %v", err)
	}
	headBuf := p.getBuf()
	if _, err := headBuf.ReadFrom(io.LimitReader(zr, 64<<20)); err != nil {
		p.putBuf(headBuf)
		return nil, nil, badContainer("zlib: %v", err)
	}
	p.putZlibR(zr)
	head := headBuf.Bytes()
	fail := func(err error) (*Container, *bytes.Buffer, error) {
		p.putBuf(headBuf)
		return nil, nil, err
	}
	r := &reader{data: head}
	mode := r.u8()
	if mode != c.Mode {
		return fail(badContainer("mode mismatch"))
	}
	if c.Mode == ModeRaw {
		c.Raw = r.bytes()
		if r.err != nil {
			return fail(r.err)
		}
		return c, headBuf, nil
	}
	c.JPEGHeader = r.bytes()
	c.Trailer = r.bytes()
	c.Prepend = r.bytes()
	c.Tail = r.bytes()
	c.PadBit = r.u8()
	c.EmitHeader = r.u8() != 0
	c.EmitTail = r.u8() != 0
	c.ModelFlags = r.u8()
	c.RSTCount = r.u32()
	c.MCUStart = r.u32()
	c.MCUEnd = r.u32()
	n := r.u32()
	if r.err != nil {
		return fail(r.err)
	}
	if n != nSeg {
		return fail(badContainer("segment count mismatch %d != %d", n, nSeg))
	}
	if n > 1024 {
		return fail(badContainer("absurd segment count %d", n))
	}
	body := 28 + int(zlen)
	var lens []uint32
	for i := uint32(0); i < n; i++ {
		var s Segment
		s.StartMCU = r.u32()
		s.Handover.BitOff = r.u8()
		s.Handover.Partial = r.u8()
		s.Handover.RSTSeen = r.u32()
		for j := range s.Handover.PrevDC {
			s.Handover.PrevDC[j] = int16(r.u16())
		}
		s.ArithLen = r.u32()
		if r.err != nil {
			return fail(r.err)
		}
		c.Segments = append(c.Segments, s)
		lens = append(lens, s.ArithLen)
		_ = i
	}
	if c.Mode == ModeProgressive {
		ns := r.u32()
		if r.err != nil {
			return fail(r.err)
		}
		if ns > 64 {
			return fail(badContainer("absurd progressive scan count %d", ns))
		}
		for i := uint32(0); i < ns; i++ {
			var ps ProgScanMeta
			ps.HeaderBytes = r.bytes()
			ps.Comps = r.bytes()
			ps.Sel = r.bytes()
			ps.Ss = r.u8()
			ps.Se = r.u8()
			ps.PadBit = r.u8()
			ps.RSTCount = r.u32()
			ps.Tail = r.bytes()
			if r.err != nil {
				return fail(r.err)
			}
			c.ProgScans = append(c.ProgScans, ps)
		}
	}
	for i, l := range lens {
		if body+int(l) > len(data) {
			return fail(badContainer("segment %d stream overruns file", i))
		}
		c.Streams = append(c.Streams, data[body:body+int(l)])
		body += int(l)
	}
	if body < len(data) {
		// Anything after the last stream is an optional seek-index section;
		// unknown or corrupt trailing bytes are ignored, as they always were.
		c.SeekIndex = parseSeekIndex(data[body:])
	}
	return c, headBuf, nil
}

// IsLepton reports whether data begins with the Lepton magic number.
func IsLepton(data []byte) bool {
	return len(data) >= 2 && data[0] == Magic0 && data[1] == Magic1
}
