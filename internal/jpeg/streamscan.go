package jpeg

import (
	"errors"

	"lepton/internal/bitio"
)

// This file is the scan-decode half of the row-window streaming pipelines
// (paper §5.1: the deployed system "streams row by row" under a hard
// memory ceiling). RowDecoder entropy-decodes the scan one MCU row at a
// time, pulled by its caller, from the scan's start or from any MCU row's
// Huffman handover word (§3.4), so a thread segment can decode its own span
// of the scan. It is the only scan-decode loop: DecodeScan, the encode's
// position pass and every thread segment drive it.

// StreamScanInfo is the scan-wide metadata a decode reports once the whole
// scan has been decoded — the fields of Scan that are not coefficients or
// positions.
type StreamScanInfo struct {
	PadBit   uint8
	PadSeen  bool
	RSTCount int
	Tail     []byte
}

// RowDecoder entropy-decodes a scan one MCU row at a time. Its state between
// rows is a handover word (Pos) plus the pad bits seen so far and whether
// restart markers have gone missing; Fork starts a second decoder from any
// row's word, so independent goroutines can each decode a span of one scan.
type RowDecoder struct {
	d          scanDecoder
	row        int // next MCU row
	rstSeen    int
	rstMissing bool
	// hOf and vOf are the effective sampling factors: a single-component
	// scan is never interleaved, so its MCU is one block whatever the SOF
	// declares.
	hOf, vOf [MaxComponents]int
	// scratch receives every block of a positions-only decode.
	scratch [64]int16
}

// NewRowDecoder returns a decoder at the start of f's scan.
func NewRowDecoder(f *File) (*RowDecoder, error) {
	d := &RowDecoder{d: scanDecoder{f: f, r: bitio.NewReader(f.ScanData)}}
	if err := d.d.loadTables(); err != nil {
		return nil, err
	}
	for i := range f.Components {
		d.hOf[i], d.vOf[i] = f.Components[i].H, f.Components[i].V
		if len(f.Components) == 1 {
			d.hOf[i], d.vOf[i] = 1, 1
		}
	}
	return d, nil
}

// Fork returns a decoder that starts at MCU row `row` of the same scan, from
// the handover word pos that a decoder of this scan reported there. It
// shares d's Huffman tables, read-only, so the two may run in different
// goroutines, and starts with the pad-bit state d holds now. That state only
// ever goes from "none seen" to one bit, and a successful decode sees only
// that bit, so a fork from a decoder that has reached row or gone past it
// decodes exactly as a decoder run from the scan's start would.
func (d *RowDecoder) Fork(row int, pos MCUPos) *RowDecoder {
	n := &RowDecoder{d: d.d, row: row, rstSeen: int(pos.RSTSeen), hOf: d.hOf, vOf: d.vOf}
	n.d.r = bitio.NewReaderAt(d.d.f.ScanData, int(pos.ByteOff), pos.BitOff)
	n.d.prevDC = pos.PrevDC
	// A decode stops expecting restart markers once one is missing, so
	// fewer seen than were due means one went missing.
	if ri := d.d.f.RestartInterval; ri > 0 {
		n.rstMissing = n.rstSeen < row*d.d.f.MCUsWide/ri
	}
	return n
}

// Row returns the MCU row Decode decodes next.
func (d *RowDecoder) Row() int { return d.row }

// Pos returns the handover word at the next MCU: the start of the next row
// between Decode calls.
func (d *RowDecoder) Pos() MCUPos {
	byteOff, bitOff := d.d.r.Pos()
	return MCUPos{
		ByteOff: int64(byteOff),
		BitOff:  bitOff,
		Partial: d.d.r.PartialByte(),
		RSTSeen: int32(d.rstSeen),
		PrevDC:  d.d.prevDC,
	}
}

// Decode decodes the next MCU row. Block row row*V+v of component ci goes
// into group[ci][v], which must be zeroed: the decoder writes only nonzero
// coefficients. A nil group decodes positions only, keeping nothing. A
// non-nil pos, one entry per MCU of the row, receives each MCU's handover
// word. The restart marker due before the next row, if any, is consumed
// here too, so Pos is the next row's word.
func (d *RowDecoder) Decode(group [][][]int16, pos []MCUPos) error {
	f := d.d.f
	ncomp := len(f.Components)
	first := d.row * f.MCUsWide
	for col := 0; col < f.MCUsWide; col++ {
		if pos != nil {
			pos[col] = d.Pos()
		}
		for ci := 0; ci < ncomp; ci++ {
			for v := 0; v < d.vOf[ci]; v++ {
				for h := 0; h < d.hOf[ci]; h++ {
					out := d.scratch[:]
					if group != nil {
						bc := col*d.hOf[ci] + h
						out = group[ci][v][bc*64 : bc*64+64]
					}
					if err := d.d.decodeBlock(ci, out); err != nil {
						return err
					}
				}
			}
		}
		if err := d.restart(first + col + 1); err != nil {
			return err
		}
	}
	d.row++
	return nil
}

// restart consumes the restart marker due before MCU mcu, if one is.
func (d *RowDecoder) restart(mcu int) error {
	ri := d.d.f.RestartInterval
	if ri == 0 || mcu%ri != 0 || mcu >= d.d.f.TotalMCUs() || d.rstMissing {
		return nil
	}
	ok, err := d.d.tryRestart(byte(d.rstSeen % 8))
	if err != nil {
		return err
	}
	if ok {
		d.rstSeen++
		d.d.prevDC = [MaxComponents]int16{}
	} else {
		// Cease expecting restart markers: the original file's tail was
		// likely zero-filled past the last marker (§A.3).
		d.rstMissing = true
	}
	return nil
}

// Finish ends the scan once its last MCU row is decoded: it consumes the
// final pad bits and returns the scan-wide metadata.
func (d *RowDecoder) Finish() (*StreamScanInfo, error) {
	pads, npads, err := d.d.r.AlignSkipPad()
	if err != nil {
		if errors.Is(err, bitio.ErrTruncated) {
			// The last byte of the scan was also the last byte of data; no
			// padding present.
			npads = 0
		} else if !errors.Is(err, bitio.ErrMarker) {
			return nil, wrapEntropyErr(err)
		}
	}
	if err := d.d.notePad(pads[:npads]); err != nil {
		return nil, err
	}
	info := &StreamScanInfo{PadBit: 1, PadSeen: d.d.padSeen, RSTCount: d.rstSeen}
	if d.d.padSeen {
		info.PadBit = d.d.padBit
	}
	info.Tail = append([]byte(nil), d.d.r.Remaining()...)
	return info, nil
}
