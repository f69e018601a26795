package jpeg

import (
	"fmt"
	"math/bits"

	"lepton/internal/bitio"
	"lepton/internal/dct"
	"lepton/internal/huffman"
)

// ScanEncoder re-creates the entropy-coded bytes of a baseline JPEG scan
// from quantized coefficients. It can be seeded from a Huffman handover word
// (partial byte, bit offset, per-channel DC predictors, restart state) so
// that independent threads or chunks each regenerate their own byte range of
// the original file (paper §3.4).
type ScanEncoder struct {
	f     *File
	w     *bitio.Writer
	dcEnc [4]*huffman.Encoder
	acEnc [4]*huffman.Encoder

	prevDC   [MaxComponents]int16
	padBit   uint8
	ri       int
	rstLimit int // total restart markers present in the original scan
	rstDone  int // restart markers emitted (or skipped as before-our-segment)
}

// ScanTables holds the Huffman encoders of one file's scan. They are read
// only once built, so every encoder of the scan (one per thread segment or
// decode unit, possibly concurrent) can share one set.
type ScanTables struct {
	f     *File
	dcEnc [4]*huffman.Encoder
	acEnc [4]*huffman.Encoder
}

// NewScanTables builds the Huffman encoders for f's tables.
func NewScanTables(f *File) (*ScanTables, error) {
	t := &ScanTables{f: f}
	for i := 0; i < 4; i++ {
		if f.DC[i] != nil {
			enc, err := huffman.NewEncoder(f.DC[i])
			if err != nil {
				return nil, err
			}
			t.dcEnc[i] = enc
		}
		if f.AC[i] != nil {
			enc, err := huffman.NewEncoder(f.AC[i])
			if err != nil {
				return nil, err
			}
			t.acEnc[i] = enc
		}
	}
	return t, nil
}

// NewScanEncoder builds an encoder for f's scan. padBit is the original
// encoder's pad bit; rstCount the number of restart markers in the original
// scan.
func NewScanEncoder(f *File, padBit uint8, rstCount int) (*ScanEncoder, error) {
	t, err := NewScanTables(f)
	if err != nil {
		return nil, err
	}
	return t.newEncoder(padBit, rstCount, len(f.ScanData)), nil
}

// newEncoder returns an encoder over t whose output buffer is sized for
// outCap bytes.
func (t *ScanTables) newEncoder(padBit uint8, rstCount, outCap int) *ScanEncoder {
	w := bitio.NewWriter()
	w.Grow(outCap)
	return &ScanEncoder{
		f:        t.f,
		w:        w,
		dcEnc:    t.dcEnc,
		acEnc:    t.acEnc,
		padBit:   padBit,
		ri:       t.f.RestartInterval,
		rstLimit: rstCount,
	}
}

// Seed initializes mid-scan state from a handover word. It must be called
// before any MCU is encoded.
func (e *ScanEncoder) Seed(pos MCUPos) {
	e.w.Seed(pos.Partial, pos.BitOff)
	e.prevDC = pos.PrevDC
	e.rstDone = int(pos.RSTSeen)
}

// EncodeMCURange encodes MCUs [start, end) of the scan, including any
// restart marker that belongs *between* MCUs of the range or immediately
// after its last MCU (the position of MCU `end` is recorded after that
// marker, so the marker belongs to this range).
func (e *ScanEncoder) EncodeMCURange(s *Scan, start, end int) error {
	total := e.f.TotalMCUs()
	for mcu := start; mcu < end; mcu++ {
		if mcu > start {
			if err := e.maybeRestart(mcu); err != nil {
				return err
			}
		}
		if err := e.encodeMCU(s, mcu); err != nil {
			return err
		}
	}
	if end < total {
		if err := e.maybeRestart(end); err != nil {
			return err
		}
	}
	return nil
}

func (e *ScanEncoder) maybeRestart(mcu int) error {
	if e.ri == 0 || mcu%e.ri != 0 || e.rstDone >= e.rstLimit {
		return nil
	}
	e.w.AlignPad(e.padBit)
	e.w.WriteMarker(mRST0 + byte(e.rstDone%8))
	e.rstDone++
	e.prevDC = [MaxComponents]int16{}
	return nil
}

// Finish pads the final byte and appends the verbatim scan tail.
func (e *ScanEncoder) Finish(tail []byte) {
	if !e.w.Aligned() {
		e.w.AlignPad(e.padBit)
	}
	e.w.AppendRaw(tail)
}

// Bytes returns the encoded output so far.
func (e *ScanEncoder) Bytes() []byte { return e.w.Bytes() }

func (e *ScanEncoder) encodeMCU(s *Scan, mcu int) error {
	f := e.f
	if len(f.Components) == 1 {
		c := &f.Components[0]
		row := mcu / c.BlocksWide
		col := mcu % c.BlocksWide
		b := (row*c.BlocksWide + col) * 64
		return e.encodeBlock(0, s.Coeff[0][b:b+64])
	}
	mcuRow := mcu / f.MCUsWide
	mcuCol := mcu % f.MCUsWide
	for ci := range f.Components {
		c := &f.Components[ci]
		for v := 0; v < c.V; v++ {
			for h := 0; h < c.H; h++ {
				br := mcuRow*c.V + v
				bc := mcuCol*c.H + h
				b := (br*c.BlocksWide + bc) * 64
				if err := e.encodeBlock(ci, s.Coeff[ci][b:b+64]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// category returns the JPEG magnitude category (bit length) of v.
func category(v int32) uint8 {
	m := v >> 31
	return uint8(bits.Len32(uint32((v ^ m) - m)))
}

// valueBits returns v's category s and the s bits that code v: v itself
// when positive, v-1 when negative. It has no branch, since a
// coefficient's sign does not predict.
func valueBits(v int32) (uint8, uint32) {
	s := category(v)
	return s, uint32(v+v>>31) & (1<<s - 1)
}

func (e *ScanEncoder) encodeBlock(comp int, blk []int16) error {
	c := &e.f.Components[comp]
	return encodeBlockTo(e.w, e.dcEnc[c.TD], e.acEnc[c.TA], &e.prevDC[comp], blk)
}

// encodeBlockTo Huffman-codes one block into w: the DC delta against
// *prevDC (which it updates) followed by the AC run/size symbols. It is the
// single block coder behind both the sequential ScanEncoder and the
// streaming per-component bit queues, so the two paths cannot drift.
func encodeBlockTo(w *bitio.Writer, dcTab, acTab *huffman.Encoder, prevDC *int16, blk []int16) error {
	diff := int32(blk[0]) - int32(*prevDC)
	*prevDC = blk[0]
	sCat, vb := valueBits(diff)
	// Codeword and value bits go out in one batched write: the category code
	// is at most 16 bits and the value at most 11, so both fit one word.
	dcCode := dcTab.Lookup(sCat)
	if dcCode.Len == 0 {
		return fmt.Errorf("DC: huffman: symbol %#02x has no code", sCat)
	}
	w.WriteBits(uint32(dcCode.Bits)<<sCat|vb, dcCode.Len+sCat)

	// Occupancy-driven AC loop: a vectorized scan finds the nonzero
	// coefficients, the zigzag bit permute orders them, and the loop visits
	// only set bits — a sparse block costs its population count, not 63
	// table-indexed loads. Zero runs fall out of the gaps between
	// consecutive set bits, emitting the identical ZRL/EOB sequence the
	// position walk produced. (zigzagTable matches dct.Zigzag; a test pins
	// the two tables together since the mask permute relies on it.)
	zmask := dct.ZigzagMask(dct.NonzeroMask(blk)) >> 1 // bit k-1 = zigzag position k
	prev := 0
	for m := zmask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m) + 1
		run := k - prev - 1
		prev = k
		for run >= 16 {
			if err := acTab.Encode(w, 0xF0); err != nil { // ZRL
				return fmt.Errorf("ZRL: %w", err)
			}
			run -= 16
		}
		v := int32(blk[zigzagTable[k]])
		size, vb := valueBits(v)
		if size > 10 {
			return reject(ReasonACRange, "AC magnitude %d", v)
		}
		sym := byte(run<<4) | size
		acCode := acTab.Lookup(sym)
		if acCode.Len == 0 {
			return fmt.Errorf("AC: huffman: symbol %#02x has no code", sym)
		}
		// Run/size code plus value bits in one batched write (<= 26 bits).
		w.WriteBits(uint32(acCode.Bits)<<size|vb, acCode.Len+size)
	}
	if prev != 63 {
		if err := acTab.Encode(w, 0x00); err != nil { // EOB
			return fmt.Errorf("EOB: %w", err)
		}
	}
	return nil
}

// EncodeScan re-creates the full entropy-coded segment of s and returns it.
// The result must be byte-identical to s.File.ScanData for a well-formed
// input; Lepton's admission control depends on verifying exactly that.
func EncodeScan(s *Scan) ([]byte, error) {
	e, err := NewScanEncoder(s.File, s.PadBit, s.RSTCount)
	if err != nil {
		return nil, err
	}
	if err := e.EncodeMCURange(s, 0, s.File.TotalMCUs()); err != nil {
		return nil, err
	}
	e.Finish(s.Tail)
	return e.Bytes(), nil
}
