package jpeg

import (
	"encoding/binary"

	"lepton/internal/bitio"
	"lepton/internal/huffman"
)

// This file is the scan re-encoder: StreamScanEncoder regenerates the
// Huffman-coded bytes of an MCU range of the original scan, or of the whole
// scan, from block rows fed one component's MCU row group at a time. It is
// the only encoder of baseline scan bytes: decodes and range reads run it
// over their decode units, seeded from each unit's handover word (paper
// §3.4), and EncodeScan runs it over a whole scan's planes. Rows come in
// the order the arithmetic model decodes them (MCU-row order: every
// component of MCU row r, then row r+1; or, for planar containers, all of
// component 0's rows, then component 1's, ...), and the output is still the
// MCU-interleaved scan of the original JPEG.
//
// For a single-component scan the orders coincide and rows are
// Huffman-coded straight into the output. For an interleaved scan they do
// not: the bits of component 0's row group sit byte- and bit-interleaved
// with the later components' bits, block by block. Each component therefore
// Huffman-codes its rows into a private *unstuffed* bit queue as they
// arrive — running its own DC-prediction chain and restart resets, which
// depend only on that component — and records its bit length per MCU.
// Finish then stitches the queues: it walks the MCU range once, copying
// each component's span for that MCU into the real (stuffed, seeded,
// padded) scan writer and emitting restart markers between MCUs.
// Coefficients die with their row; what is retained per range is
// compressed-domain bits, roughly the size of the output itself.

// copyBits appends the n bits of src starting at bit position *pos to dst,
// advancing *pos, 32 bits per write. src is a sealed queue (see seal), so
// the 8-byte load at any in-range position stays inside it.
func copyBits(dst *bitio.Writer, src []byte, pos *int64, n uint32) {
	p := *pos
	for n > 0 {
		take := min(n, 32)
		word := binary.BigEndian.Uint64(src[p>>3:]) << (p & 7)
		dst.WriteBits(uint32(word>>(64-take)), uint8(take))
		p += int64(take)
		n -= take
	}
	*pos = p
}

// seal pads w's partial byte with zeros and appends eight zero bytes, then
// returns its bytes: every bit written before the call can then be read by
// copyBits with one 8-byte load. w must not be written to afterwards.
func seal(w *bitio.Writer) []byte {
	var zero [8]byte
	w.AlignPad(0)
	w.AppendRaw(zero[:])
	return w.Bytes()
}

// compQueue is one component's pending scan bits.
type compQueue struct {
	w       *bitio.Writer // unstuffed bit queue
	mcuBits []uint32      // bits appended per MCU of the range, in order
	dcTab   *huffman.Encoder
	acTab   *huffman.Encoder
	prevDC  int16
	rstDone int
}

// StreamEncBuffers is reusable backing storage for a StreamScanEncoder's
// per-component bit queues; pooling it across conversions removes the
// queue allocations from the steady state.
type StreamEncBuffers struct {
	ws   [MaxComponents]*bitio.Writer
	lens [MaxComponents][]uint32
}

// StreamScanEncoder re-creates the entropy-coded bytes of an MCU range
// from block rows delivered one component's MCU row group at a time (see
// the file comment). The range starts and ends on MCU-row boundaries.
// Create one per range, feed it with ConsumeGroup, and call Finish once
// every component's rows have been consumed.
type StreamScanEncoder struct {
	f          *File
	t          *ScanTables
	w          *bitio.Writer // the range's scan bytes: stuffed, seeded, padded
	start, end int
	padBit     uint8
	rstLimit   int         // restart markers present in the original scan
	rstDone    int         // restart markers written, or before the range
	prevDC     int16       // a single-component scan's DC predictor
	queues     []compQueue // nil for single-component scans
}

// NewStreamScanEncoder builds a streaming encoder for MCUs [start, end) of
// the scan t was built for, seeded from the range's Huffman handover word.
// padBit and rstCount are the scan-wide values recorded in the container.
// outCap sizes the output buffer once: the range's scan bytes when the
// caller knows them, an estimate otherwise (too small only costs a regrow).
// bufs, when non-nil, supplies pooled queue storage.
func NewStreamScanEncoder(t *ScanTables, padBit uint8, rstCount int, start, end int, seed MCUPos, outCap int, bufs *StreamEncBuffers) *StreamScanEncoder {
	f := t.f
	w := bitio.NewWriter()
	w.Grow(outCap)
	w.Seed(seed.Partial, seed.BitOff)
	se := &StreamScanEncoder{f: f, t: t, w: w, start: start, end: end, padBit: padBit,
		rstLimit: rstCount, rstDone: int(seed.RSTSeen), prevDC: seed.PrevDC[0]}
	if len(f.Components) == 1 {
		return se
	}
	se.queues = make([]compQueue, len(f.Components))
	for ci := range f.Components {
		c := &f.Components[ci]
		q := &se.queues[ci]
		if bufs != nil && bufs.ws[ci] != nil {
			q.w = bufs.ws[ci]
			q.w.Reset()
			q.mcuBits = bufs.lens[ci][:0]
		} else {
			q.w = bitio.NewRawWriter()
		}
		q.dcTab = t.dcEnc[c.TD]
		q.acTab = t.acEnc[c.TA]
		q.prevDC = seed.PrevDC[ci]
		q.rstDone = int(seed.RSTSeen)
	}
	return se
}

// ReleaseBuffers returns the queue storage to bufs for reuse. Call it only
// once the encoder (and any slice returned by Finish — which aliases the
// scan writer, not the queues) is no longer needed.
func (se *StreamScanEncoder) ReleaseBuffers(bufs *StreamEncBuffers) {
	if bufs == nil {
		return
	}
	for ci := range se.queues {
		bufs.ws[ci] = se.queues[ci].w
		bufs.lens[ci] = se.queues[ci].mcuBits
	}
}

// restartDue reports whether the original scan, with restart interval ri
// and rstLimit markers, has a marker before MCU m once done markers have
// gone before.
func restartDue(ri, m, done, rstLimit int) bool {
	return ri != 0 && m%ri == 0 && done < rstLimit
}

// maybeRestart writes the restart marker due before MCU m, if one is, and
// reports whether it did.
func (se *StreamScanEncoder) maybeRestart(m int) bool {
	if !restartDue(se.f.RestartInterval, m, se.rstDone, se.rstLimit) {
		return false
	}
	se.w.AlignPad(se.padBit)
	se.w.WriteMarker(mRST0 + byte(se.rstDone%8))
	se.rstDone++
	return true
}

// ConsumeGroup appends component ci's share of MCU row mcuRow. rows holds
// the component's block rows covering that MCU row (V rows for interleaved
// scans, one for single-component), each BlocksWide*64 coefficients; they
// are only read during the call.
func (se *StreamScanEncoder) ConsumeGroup(ci, mcuRow int, rows [][]int16) error {
	f := se.f
	if se.queues == nil {
		// One component: row order is MCU order, so encode straight into
		// the seeded, stuffed output writer, restarts included.
		c := &f.Components[0]
		dcTab, acTab := se.t.dcEnc[c.TD], se.t.acEnc[c.TA]
		row := rows[0]
		for col := 0; col < f.MCUsWide; col++ {
			if m := mcuRow*f.MCUsWide + col; m > se.start && se.maybeRestart(m) {
				se.prevDC = 0
			}
			if err := encodeBlockTo(se.w, dcTab, acTab, &se.prevDC, row[col*64:col*64+64]); err != nil {
				return err
			}
		}
		return nil
	}
	c := &f.Components[ci]
	q := &se.queues[ci]
	for mcuCol := 0; mcuCol < f.MCUsWide; mcuCol++ {
		// The stitch writes the marker; the component's own DC chain
		// resets here.
		if m := mcuRow*f.MCUsWide + mcuCol; m > se.start && restartDue(f.RestartInterval, m, q.rstDone, se.rstLimit) {
			q.rstDone++
			q.prevDC = 0
		}
		before := q.w.BitLen()
		for v := 0; v < c.V; v++ {
			for h := 0; h < c.H; h++ {
				bc := mcuCol*c.H + h
				if err := encodeBlockTo(q.w, q.dcTab, q.acTab, &q.prevDC, rows[v][bc*64:bc*64+64]); err != nil {
					return err
				}
			}
		}
		q.mcuBits = append(q.mcuBits, uint32(q.w.BitLen()-before))
	}
	return nil
}

// Finish completes the range: for interleaved scans it stitches the
// per-component queues into the output in MCU order, inserting restart
// markers (with padding) between MCUs where the original scan has them.
// When the range ends mid-scan, a restart marker belonging to the boundary
// is appended; when atScanEnd is set, the final byte is padded and the
// verbatim tail appended. The returned bytes alias the encoder's buffer.
func (se *StreamScanEncoder) Finish(tail []byte, atScanEnd bool) []byte {
	if se.queues != nil {
		var srcs [MaxComponents][]byte
		var pos [MaxComponents]int64 // stitch read cursors
		for ci := range se.queues {
			srcs[ci] = seal(se.queues[ci].w)
		}
		for idx, m := 0, se.start; m < se.end; idx, m = idx+1, m+1 {
			if m > se.start {
				se.maybeRestart(m)
			}
			for ci := range se.queues {
				copyBits(se.w, srcs[ci], &pos[ci], se.queues[ci].mcuBits[idx])
			}
		}
	}
	if se.end < se.f.TotalMCUs() {
		se.maybeRestart(se.end)
	}
	if atScanEnd {
		if !se.w.Aligned() {
			se.w.AlignPad(se.padBit)
		}
		se.w.AppendRaw(tail)
	}
	return se.w.Bytes()
}
