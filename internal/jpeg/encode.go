package jpeg

import (
	"fmt"
	"math/bits"

	"lepton/internal/bitio"
	"lepton/internal/dct"
	"lepton/internal/huffman"
)

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

// encodeBlockTo Huffman-codes one block into w: the DC delta against
// *prevDC (which it updates) followed by the AC run/size symbols. It is the
// one block coder of StreamScanEncoder, for its output writer and its
// per-component bit queues alike.
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
// input; Lepton's admission control depends on verifying exactly that. It
// runs one StreamScanEncoder over the whole scan, fed the planes' block
// rows in MCU-row order.
func EncodeScan(s *Scan) ([]byte, error) {
	f := s.File
	t, err := NewScanTables(f)
	if err != nil {
		return nil, err
	}
	se := NewStreamScanEncoder(t, s.PadBit, s.RSTCount, 0, f.TotalMCUs(), MCUPos{}, len(f.ScanData), nil)
	var rows [][]int16
	for mr := 0; mr < f.MCUsHigh; mr++ {
		for ci := range f.Components {
			v := f.Components[ci].V
			if len(f.Components) == 1 {
				v = 1
			}
			rowLen := f.Components[ci].BlocksWide * 64
			rows = rows[:0]
			for br := mr * v; br < (mr+1)*v; br++ {
				rows = append(rows, s.Coeff[ci][br*rowLen:(br+1)*rowLen])
			}
			if err := se.ConsumeGroup(ci, mr, rows); err != nil {
				return nil, err
			}
		}
	}
	return se.Finish(s.Tail, true), nil
}
