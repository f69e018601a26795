package jpeg

import (
	"errors"

	"lepton/internal/bitio"
	"lepton/internal/huffman"
)

// MCUPos records the entropy-decoder state at the start of one MCU: the
// position of its first bit in the raw scan bytes, the bits of that byte
// already owned by the previous MCU, the DC predictors, and how many restart
// markers precede it. This is exactly the state a "Huffman handover word"
// carries so an independent thread or chunk can resume encoding mid-stream
// (paper §3.4).
type MCUPos struct {
	ByteOff int64
	BitOff  uint8
	Partial uint8
	RSTSeen int32
	PrevDC  [MaxComponents]int16
}

// Scan holds the fully decoded entropy-coded segment of a baseline JPEG.
type Scan struct {
	File *File
	// Coeff holds quantized DCT coefficients per component, raster block
	// order, 64 int16 per block in raster (not zigzag) order within the
	// block.
	Coeff [][]int16
	// Positions has one entry per MCU.
	Positions []MCUPos
	// PadBit is the bit value the original encoder used to pad partial
	// bytes before restart markers and at the end of the scan.
	PadBit uint8
	// PadSeen reports whether any pad bits were observed; if not, PadBit
	// defaults to 1 (the common choice).
	PadSeen bool
	// RSTCount is the number of restart markers present in the scan. It can
	// be lower than the restart interval implies for corrupt files whose
	// tails were zero-filled (paper §A.3).
	RSTCount int
	// Tail holds unconsumed bytes between the end of the last MCU's data
	// (after padding) and the marker that terminates the scan — arbitrary
	// garbage that must be reproduced verbatim.
	Tail []byte
}

func extend(v uint32, s uint8) int32 {
	if s == 0 {
		return 0
	}
	if v < 1<<(s-1) {
		return int32(v) - int32(1<<s) + 1
	}
	return int32(v)
}

type scanDecoder struct {
	f     *File
	r     *bitio.Reader
	dcDec [4]*huffman.Decoder
	acDec [4]*huffman.Decoder

	prevDC  [MaxComponents]int16
	padBit  uint8
	padSeen bool
}

// loadTables builds the Huffman decoders of d.f's tables.
func (d *scanDecoder) loadTables() error {
	f := d.f
	for i := 0; i < 4; i++ {
		if f.DC[i] != nil {
			dec, err := huffman.NewDecoder(f.DC[i])
			if err != nil {
				return reject(ReasonUnsupported, "DC table %d: %v", i, err)
			}
			d.dcDec[i] = dec
		}
		if f.AC[i] != nil {
			dec, err := huffman.NewDecoder(f.AC[i])
			if err != nil {
				return reject(ReasonUnsupported, "AC table %d: %v", i, err)
			}
			d.acDec[i] = dec
		}
	}
	return nil
}

// fastCode decodes one Huffman symbol and its trailing raw value bits from a
// single 24-bit peek: a code of length <= 8 from the peek table plus up to 11
// value bits (the symbol's low 4 bits for AC, the whole symbol for DC, as
// selected by sizeMask). ok is false whenever the one-load path cannot apply
// — lookahead crossing a stuffed 0xFF, a marker, the end of input, codes
// longer than the peek table, or a size beyond maxSize — and the caller must
// take the exact bit-by-bit path, whose error handling is authoritative.
func (d *scanDecoder) fastCode(tab *huffman.Decoder, sizeMask, maxSize uint8) (sym uint8, raw uint32, ok bool) {
	bits, ok := d.r.PeekBits(24)
	if !ok {
		return 0, 0, false
	}
	sym, n := tab.PeekSym(uint8(bits >> 16))
	size := sym & sizeMask
	if n == 0 || size > maxSize {
		return 0, 0, false
	}
	raw = bits >> (24 - n - size) & (uint32(1)<<size - 1)
	d.r.SkipBits(n + size)
	return sym, raw, true
}

// decodeBlock entropy-decodes one 8x8 block into out (raster order within
// the block).
func (d *scanDecoder) decodeBlock(comp int, out []int16) error {
	c := &d.f.Components[comp]
	dcTab := d.dcDec[c.TD]
	acTab := d.acDec[c.TA]

	s, raw, ok := d.fastCode(dcTab, 0xFF, 11)
	if !ok {
		var err error
		s, err = dcTab.Decode(d.r)
		if err != nil {
			return wrapEntropyErr(err)
		}
		if s > 11 {
			return reject(ReasonACRange, "DC category %d", s)
		}
		raw, err = d.r.ReadBits(s)
		if err != nil {
			return wrapEntropyErr(err)
		}
	}
	diff := extend(raw, s)
	dc := int32(d.prevDC[comp]) + diff
	if dc < -2048 || dc > 2047 {
		return reject(ReasonACRange, "DC value %d", dc)
	}
	d.prevDC[comp] = int16(dc)
	out[0] = int16(dc)

	// The re-encoder writes the canonical coding of the coefficients: EOB
	// as symbol 0x00, and a ZRL only before a nonzero coefficient. Any
	// other coding decodes to coefficients it would write back differently,
	// so it is refused here. zrlEnd is the k the last ZRL ended at; it
	// equals k at the block's end only if no coefficient followed it.
	k, zrlEnd := 1, 0
	for k < 64 {
		rs, raw, fast := d.fastCode(acTab, 0x0F, 10)
		if !fast {
			var err error
			rs, err = acTab.Decode(d.r)
			if err != nil {
				return wrapEntropyErr(err)
			}
		}
		run, size := rs>>4, rs&15
		if size == 0 {
			if run == 15 { // ZRL: sixteen zeros
				k += 16
				zrlEnd = k
				continue
			}
			if run != 0 {
				return reject(ReasonUnsupported, "AC symbol %#02x is neither EOB nor ZRL", rs)
			}
			break // EOB
		}
		if size > 10 {
			return reject(ReasonACRange, "AC category %d", size)
		}
		k += int(run)
		if k > 63 {
			return reject(ReasonACRange, "AC run overflows block")
		}
		if !fast {
			// The exact path defers the value-bit read until the symbol and
			// run have been validated, matching the checks' original order;
			// the fast path extracted raw from the peek already.
			var err error
			raw, err = d.r.ReadBits(size)
			if err != nil {
				return wrapEntropyErr(err)
			}
		}
		out[zigzagTable[k]] = int16(extend(raw, size))
		k++
	}
	if k == zrlEnd {
		return reject(ReasonRoundtrip, "ZRL not followed by a nonzero coefficient")
	}
	return nil
}

func wrapEntropyErr(err error) error {
	switch {
	case errors.Is(err, bitio.ErrTruncated):
		return reject(ReasonTruncated, "entropy stream truncated")
	case errors.Is(err, bitio.ErrMarker):
		return reject(ReasonRoundtrip, "unexpected marker in entropy stream")
	default:
		return reject(ReasonRoundtrip, "entropy decode: %v", err)
	}
}

// notePad folds observed pad bits into the scan-wide pad-bit state.
func (d *scanDecoder) notePad(bits []uint8) error {
	for _, b := range bits {
		if !d.padSeen {
			d.padBit = b
			d.padSeen = true
		} else if b != d.padBit {
			return reject(ReasonRoundtrip, "inconsistent pad bits")
		}
	}
	return nil
}

// tryRestart attempts to consume a restart marker at a restart boundary.
// Returns (true, nil) if the marker was present and consumed, (false, nil)
// if absent (zero-filled tail case: decoding continues without a DC reset).
func (d *scanDecoder) tryRestart(expect byte) (bool, error) {
	save := *d.r
	pads, npads, err := d.r.AlignSkipPad()
	if err != nil {
		*d.r = save
		return false, nil
	}
	if _, err := d.r.ReadBit(); !errors.Is(err, bitio.ErrMarker) {
		*d.r = save
		return false, nil
	}
	if at, m := d.r.AtMarker(); !at || m != mRST0+expect {
		*d.r = save
		return false, nil
	}
	if _, err := d.r.SkipMarker(); err != nil {
		*d.r = save
		return false, nil
	}
	if err := d.notePad(pads[:npads]); err != nil {
		return false, err
	}
	return true, nil
}

// DecodeScan entropy-decodes the scan of a parsed file into whole
// coefficient planes, recording every MCU's handover word. It is a loop
// over RowDecoder, whose block rows are slices of the planes, so the
// whole-plane and streaming decodes share one MCU walk.
func DecodeScan(f *File) (*Scan, error) {
	d, err := NewRowDecoder(f)
	if err != nil {
		return nil, err
	}
	s := &Scan{File: f, Positions: make([]MCUPos, f.TotalMCUs())}
	coeff := make([]int16, f.CoefficientCount())
	group := make([][][]int16, len(f.Components))
	for ci, c := range f.Components {
		n := c.BlocksWide * c.BlocksHigh * 64
		s.Coeff = append(s.Coeff, coeff[:n:n])
		coeff = coeff[n:]
		group[ci] = make([][]int16, d.vOf[ci])
	}
	w := f.MCUsWide
	for row := 0; row < f.MCUsHigh; row++ {
		for ci, g := range group {
			rowLen := f.Components[ci].BlocksWide * 64
			for v := range g {
				br := row*len(g) + v
				g[v] = s.Coeff[ci][br*rowLen : (br+1)*rowLen : (br+1)*rowLen]
			}
		}
		if err := d.Decode(group, s.Positions[row*w:(row+1)*w]); err != nil {
			return nil, err
		}
	}
	info, err := d.Finish()
	if err != nil {
		return nil, err
	}
	s.PadBit = info.PadBit
	s.PadSeen = info.PadSeen
	s.RSTCount = info.RSTCount
	s.Tail = info.Tail
	return s, nil
}

// BlockAt returns the coefficient slice for block (row, col) of component c.
func (s *Scan) BlockAt(c, row, col int) []int16 {
	bw := s.File.Components[c].BlocksWide
	b := (row*bw + col) * 64
	return s.Coeff[c][b : b+64]
}
