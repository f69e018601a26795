package core

import (
	"encoding/binary"
	"hash/crc32"

	"lepton/internal/jpeg"
)

// The seek index is the range-serving companion of the container (paper
// §3, §5.5: recompressed files must serve arbitrary HTTP Range requests
// without decoding the whole image). During compression the stream scan
// decoder already computes a Huffman handover word at every MCU row —
// byte/bit position in the original scan, the partially emitted byte, the
// restart-marker count, and the DC predictors. Persisting that table lets
// DecodeRangeToCtx later binary-search the rows overlapping a byte range,
// arith-decode only the thread segments containing them, and re-emit
// exactly the requested scan bytes.
//
// The index is appended AFTER the arithmetic streams as a self-contained
// trailing section. Old readers never see it: the plain-ModeLepton
// unmarshal slices streams by their recorded lengths and ignored trailing
// bytes long before the index existed. New readers treat a missing,
// truncated, or corrupt section as "no index" and fall back to full
// decode — the index can optimize a decode but never fail one.
//
// Per-segment arithmetic input offsets are not duplicated here: they are
// prefix sums of the ArithLen fields already in the zlib head section,
// and the per-segment handover words are the subset of this table at
// segment-start rows.
//
// Section layout (little-endian), following the last arithmetic stream:
//
//	+-------------------+----------------------------------------------+
//	| magic  "LS"       | 2 bytes: 0x4C 0x53                           |
//	| version           | 1 byte:  0x01                                |
//	| nRows             | u32: MCU rows covered by the container       |
//	| row record × nRows| 18 bytes each:                               |
//	|   byteOff   u32   |   scan-relative offset of the row's first bit|
//	|   bitOff    u8    |   bits already emitted into that byte        |
//	|   partial   u8    |   the partially emitted byte                 |
//	|   rstSeen   u32   |   restart markers consumed before the row    |
//	|   prevDC    4×i16 |   DC predictors at the row boundary          |
//	| crc32             | u32: IEEE CRC over everything above          |
//	+-------------------+----------------------------------------------+
const (
	seekIndexMagic0  = 'L'
	seekIndexMagic1  = 'S'
	seekIndexVersion = 0x01

	// seekIndexMaxRows bounds the table (a 65k-row image is ~1.2 MiB of
	// index on a file that is at least tens of MiB); taller images simply
	// do not get an index and keep the full-decode path.
	seekIndexMaxRows = 1 << 16

	seekIndexRowSize = 4 + 1 + 1 + 4 + 2*jpeg.MaxComponents
	seekIndexMinSize = 2 + 1 + 4 + 4
)

// seekIndexSize is the section's length for n rows.
func seekIndexSize(n int) int { return seekIndexMinSize + n*seekIndexRowSize }

// appendSeekIndex appends idx's section to out. Row byte offsets are
// stored as u32: OutputSize is itself a u32, so every representable scan
// offset fits.
func appendSeekIndex(out []byte, idx []jpeg.MCUPos) []byte {
	start := len(out)
	out = append(out, seekIndexMagic0, seekIndexMagic1, seekIndexVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(idx)))
	for _, p := range idx {
		out = binary.LittleEndian.AppendUint32(out, uint32(p.ByteOff))
		out = append(out, p.BitOff, p.Partial)
		out = binary.LittleEndian.AppendUint32(out, uint32(p.RSTSeen))
		for _, dc := range p.PrevDC {
			out = binary.LittleEndian.AppendUint16(out, uint16(dc))
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
}

// CutSeekIndex returns comp without its trailing seek-index section: the
// index-less container that legacy encoders wrote for the same input,
// which must still decode and serve every range through the fallback. A
// container without a valid index comes back unchanged.
func CutSeekIndex(comp []byte) []byte {
	c, err := Unmarshal(comp)
	if err != nil || c.SeekIndex == nil {
		return comp
	}
	return comp[:len(comp)-seekIndexSize(len(c.SeekIndex))]
}

// parseSeekIndex decodes a trailing index section. Any deviation — wrong
// magic or version, size mismatch, CRC failure, non-monotonic offsets —
// returns nil: the container stays fully decodable either way, so a bad
// index is discarded, never reported.
func parseSeekIndex(data []byte) []jpeg.MCUPos {
	if len(data) < seekIndexMinSize ||
		data[0] != seekIndexMagic0 || data[1] != seekIndexMagic1 ||
		data[2] != seekIndexVersion {
		return nil
	}
	nRows := binary.LittleEndian.Uint32(data[3:])
	if nRows == 0 || nRows > seekIndexMaxRows {
		return nil
	}
	want := seekIndexSize(int(nRows))
	if len(data) != want {
		return nil
	}
	body := data[:want-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[want-4:]) {
		return nil
	}
	idx := make([]jpeg.MCUPos, nRows)
	off := 7
	for i := range idx {
		rec := data[off : off+seekIndexRowSize]
		idx[i] = jpeg.MCUPos{
			ByteOff: int64(binary.LittleEndian.Uint32(rec[0:])),
			BitOff:  rec[4],
			Partial: rec[5],
			RSTSeen: int32(binary.LittleEndian.Uint32(rec[6:])),
		}
		for j := range idx[i].PrevDC {
			idx[i].PrevDC[j] = int16(binary.LittleEndian.Uint16(rec[10+2*j:]))
		}
		if i > 0 && idx[i].ByteOff < idx[i-1].ByteOff {
			return nil
		}
		off += seekIndexRowSize
	}
	return idx
}
