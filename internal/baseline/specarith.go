package baseline

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"io"

	"lepton/internal/arith"
	"lepton/internal/core"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

// SpecArith re-codes the scan with the small JPEG-spec-style arithmetic
// model (~300 bins) — the "MozJPEG (arithmetic)" comparator. Unlike the real
// MozJPEG it is file-preserving, since this repository's infrastructure
// makes that easy; compression-wise it behaves like the paper's diamond:
// clearly better than generic codecs, clearly worse than Lepton.
type SpecArith struct{}

func (SpecArith) Name() string         { return "specarith" }
func (SpecArith) FilePreserving() bool { return true }

var specMagic = []byte{0x5A, 0x41} // "ZA"

func (SpecArith) Compress(data []byte) ([]byte, error) {
	f, err := jpeg.Parse(data, core.MemEncodeBudget)
	if err != nil {
		return nil, err
	}
	if err := guardPlanes(f); err != nil {
		return nil, err
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		return nil, err
	}
	m := model.NewSpecArith()
	e := arith.NewEncoder()
	m.Encode(e, planes(f, s))
	stream := e.Flush()

	var head bytes.Buffer
	put := func(b []byte) {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(b)))
		head.Write(l[:])
		head.Write(b)
	}
	put(f.Header)
	put(f.Trailer)
	put(s.Tail)
	head.WriteByte(s.PadBit)
	var rc [4]byte
	binary.LittleEndian.PutUint32(rc[:], uint32(s.RSTCount))
	head.Write(rc[:])

	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	if _, err := zw.Write(head.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}

	var out bytes.Buffer
	out.Write(specMagic)
	var zl [4]byte
	binary.LittleEndian.PutUint32(zl[:], uint32(z.Len()))
	out.Write(zl[:])
	out.Write(z.Bytes())
	out.Write(stream)
	return out.Bytes(), nil
}

func (SpecArith) Decompress(comp []byte) ([]byte, error) {
	if len(comp) < 6 || !bytes.Equal(comp[:2], specMagic) {
		return nil, errors.New("specarith: bad magic")
	}
	zlen := binary.LittleEndian.Uint32(comp[2:])
	if 6+int(zlen) > len(comp) {
		return nil, errors.New("specarith: truncated")
	}
	zr, err := zlib.NewReader(bytes.NewReader(comp[6 : 6+zlen]))
	if err != nil {
		return nil, err
	}
	head, err := io.ReadAll(io.LimitReader(zr, 64<<20))
	if err != nil {
		return nil, err
	}
	get := func() ([]byte, error) {
		if len(head) < 4 {
			return nil, errors.New("specarith: short header")
		}
		n := binary.LittleEndian.Uint32(head)
		head = head[4:]
		if int(n) > len(head) {
			return nil, errors.New("specarith: short header")
		}
		v := head[:n]
		head = head[n:]
		return v, nil
	}
	hdr, err := get()
	if err != nil {
		return nil, err
	}
	trailer, err := get()
	if err != nil {
		return nil, err
	}
	tail, err := get()
	if err != nil {
		return nil, err
	}
	if len(head) < 5 {
		return nil, errors.New("specarith: short header")
	}
	padBit := head[0]
	rstCount := binary.LittleEndian.Uint32(head[1:])

	f, err := jpeg.ParseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if err := guardPlanes(f); err != nil {
		return nil, err
	}
	coeff := make([][]int16, len(f.Components))
	for i := range f.Components {
		c := &f.Components[i]
		coeff[i] = make([]int16, c.BlocksWide*c.BlocksHigh*64)
	}
	m := model.NewSpecArith()
	d := arith.NewDecoder(comp[6+zlen:])
	if err := m.Decode(d, planesRaw(f, coeff)); err != nil {
		return nil, err
	}
	s := &jpeg.Scan{File: f, Coeff: coeff, PadBit: padBit, RSTCount: int(rstCount), Tail: tail}
	scan, err := jpeg.EncodeScan(s)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), hdr...)
	out = append(out, scan...)
	return append(out, trailer...), nil
}

func planes(f *jpeg.File, s *jpeg.Scan) []model.ComponentPlane {
	return planesRaw(f, s.Coeff)
}

func planesRaw(f *jpeg.File, coeff [][]int16) []model.ComponentPlane {
	var out []model.ComponentPlane
	for i := range f.Components {
		c := &f.Components[i]
		out = append(out, model.Plane(c.BlocksWide, c.BlocksHigh, &f.Quant[c.TQ], coeff[i]))
	}
	return out
}
