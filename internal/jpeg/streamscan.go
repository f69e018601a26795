package jpeg

import (
	"errors"

	"lepton/internal/bitio"
)

// This file is the producer half of the row-window streaming pipeline
// (paper §5.1: the deployed system "streams row by row" under a hard
// memory ceiling). DecodeScanStream entropy-decodes the scan exactly like
// DecodeScan, but instead of materializing whole coefficient planes it
// borrows one MCU row's worth of block-row buffers from its sink at a
// time, hands each completed row over, and never looks back — per-file
// coefficient memory is one MCU row, not one image.

// RowSink receives decoded coefficient block rows from DecodeScanStream.
// Implementations route rows to the consumers that model-encode them and
// own the buffer lifecycle.
type RowSink interface {
	// GetRowBuf returns a zeroed buffer of Components[ci].BlocksWide*64
	// coefficients for one block row of component ci. The decoder writes
	// only nonzero coefficients, so the buffer must come back zeroed.
	GetRowBuf(ci int) []int16
	// EmitRow hands over the completed block row `row` (absolute index)
	// of component ci. Ownership of coeff transfers to the sink; a non-nil
	// error aborts the scan decode and is returned unwrapped.
	EmitRow(ci, row int, coeff []int16) error
}

// StreamScanInfo is the scan-wide metadata DecodeScanStream reports once
// the whole scan has been decoded — the fields of Scan that are not
// coefficients or positions.
type StreamScanInfo struct {
	PadBit   uint8
	PadSeen  bool
	RSTCount int
	Tail     []byte
}

// errSinkAbort wraps a sink error so the caller can tell producer-side scan
// corruption apart from a consumer that refused a row.
type errSinkAbort struct{ err error }

func (e errSinkAbort) Error() string { return e.err.Error() }
func (e errSinkAbort) Unwrap() error { return e.err }

// SinkErr returns the sink's own error when scan streaming was aborted by
// EmitRow, or nil when err came from the entropy decode itself.
func SinkErr(err error) error {
	var sa errSinkAbort
	if errors.As(err, &sa) {
		return sa.err
	}
	return nil
}

// DecodeScanStream entropy-decodes f's scan in MCU order, emitting each
// block row to sink as soon as its last coefficient is decoded. posAt lists
// ascending MCU indices whose entropy-decoder state (Huffman handover
// words) should be recorded into posOut, which must have the same length;
// both may be nil, and a nil posAt with posOut covering every MCU records
// them all. This is the only MCU walk in the package: DecodeScan is a
// slab-backed sink over it, so the buffered and streamed decoders cannot
// diverge on restart handling or pad-bit bookkeeping.
func DecodeScanStream(f *File, sink RowSink, posAt []int, posOut []MCUPos) (*StreamScanInfo, error) {
	d, err := newScanDecoder(f)
	if err != nil {
		return nil, err
	}
	total := f.TotalMCUs()

	// Effective per-component sampling factors: a single-component scan is
	// never interleaved, so its MCU is one block regardless of the SOF's
	// declared factors.
	ncomp := len(f.Components)
	hOf := make([]int, ncomp)
	vOf := make([]int, ncomp)
	for i := range f.Components {
		hOf[i], vOf[i] = f.Components[i].H, f.Components[i].V
		if ncomp == 1 {
			hOf[i], vOf[i] = 1, 1
		}
	}

	// The current MCU row's buffers: group[ci][v] is block row mcuRow*V+v.
	group := make([][][]int16, ncomp)
	for ci := range group {
		group[ci] = make([][]int16, vOf[ci])
	}
	mcuRow := -1
	openGroup := func() {
		for ci := range group {
			for v := range group[ci] {
				group[ci][v] = sink.GetRowBuf(ci)
			}
		}
	}
	emitGroup := func() error {
		for ci := range group {
			for v := range group[ci] {
				if err := sink.EmitRow(ci, mcuRow*vOf[ci]+v, group[ci][v]); err != nil {
					return errSinkAbort{err}
				}
				group[ci][v] = nil
			}
		}
		return nil
	}

	ri := f.RestartInterval
	rstSeen := 0
	rstMissing := false
	recordAll := posAt == nil && len(posOut) == total
	pi := 0
	for mcu := 0; mcu < total; mcu++ {
		if row := mcu / f.MCUsWide; row != mcuRow {
			if mcuRow >= 0 {
				if err := emitGroup(); err != nil {
					return nil, err
				}
			}
			mcuRow = row
			openGroup()
		}
		if ri > 0 && mcu > 0 && mcu%ri == 0 && !rstMissing {
			ok, err := d.tryRestart(byte(rstSeen % 8))
			if err != nil {
				return nil, err
			}
			if ok {
				rstSeen++
				d.prevDC = [MaxComponents]int16{}
			} else {
				// Cease expecting restart markers: the original file's tail
				// was likely zero-filled past the last marker (§A.3).
				rstMissing = true
			}
		}
		if recordAll {
			byteOff, bitOff := d.r.Pos()
			posOut[mcu] = MCUPos{
				ByteOff: int64(byteOff),
				BitOff:  bitOff,
				Partial: d.r.PartialByte(),
				RSTSeen: int32(rstSeen),
				PrevDC:  d.prevDC,
			}
		}
		for pi < len(posAt) && posAt[pi] == mcu {
			byteOff, bitOff := d.r.Pos()
			posOut[pi] = MCUPos{
				ByteOff: int64(byteOff),
				BitOff:  bitOff,
				Partial: d.r.PartialByte(),
				RSTSeen: int32(rstSeen),
				PrevDC:  d.prevDC,
			}
			pi++
		}
		mcuCol := mcu % f.MCUsWide
		for ci := 0; ci < ncomp; ci++ {
			for v := 0; v < vOf[ci]; v++ {
				for h := 0; h < hOf[ci]; h++ {
					bc := mcuCol*hOf[ci] + h
					if err := d.decodeBlock(ci, group[ci][v][bc*64:bc*64+64]); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if mcuRow >= 0 {
		if err := emitGroup(); err != nil {
			return nil, err
		}
	}

	// Final byte alignment: remaining bits of the last byte are padding.
	pads, npads, err := d.r.AlignSkipPad()
	if err != nil {
		if errors.Is(err, bitio.ErrTruncated) {
			// The last byte of the scan was also the last byte of data; no
			// padding present.
			npads = 0
		} else if !errors.Is(err, bitio.ErrMarker) {
			return nil, wrapEntropyErr(err)
		}
	}
	if err := d.notePad(pads[:npads]); err != nil {
		return nil, err
	}
	info := &StreamScanInfo{PadBit: 1, RSTCount: rstSeen}
	if d.padSeen {
		info.PadBit = d.padBit
	}
	info.PadSeen = d.padSeen
	info.Tail = append([]byte(nil), d.r.Remaining()...)
	return info, nil
}
