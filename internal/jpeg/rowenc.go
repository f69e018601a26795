package jpeg

import (
	"lepton/internal/bitio"
	"lepton/internal/huffman"
)

// This file is the consumer half of the row-window streaming pipeline: a
// scan re-encoder fed one component's MCU row group at a time, in the order
// the arithmetic model decodes (MCU-row order: every component of MCU row
// r, then row r+1; or, for planar containers, all of component 0's rows,
// then component 1's, ...), that still produces the MCU-interleaved scan
// bytes of the original JPEG.
//
// For a single-component scan the orders coincide and rows are
// Huffman-coded straight into the output. For an interleaved scan they do
// not: the bits of component 0's row group sit byte- and bit-interleaved
// with the later components' bits, block by block. Each component therefore Huffman-codes its
// rows into a private *unstuffed* bit queue as they arrive — running its
// own DC-prediction chain and restart resets, which depend only on that
// component — and records its bit length per MCU. Finish then stitches the
// queues: it walks the MCU range once, copying each component's span for
// that MCU into the real (stuffed, seeded, padded) scan writer and
// emitting restart markers between MCUs, exactly where the sequential
// encoder would. The bit sequence is identical to EncodeMCURange over full
// planes; only the buffering differs — coefficients die with their row,
// and what is retained per segment is compressed-domain bits, roughly the
// size of the output itself.

// bitLen returns the total number of bits written to w (whole bytes plus
// the partial byte). Only meaningful for unstuffed writers.
func bitLen(w *bitio.Writer) int64 {
	_, n := w.Partial()
	return int64(w.Len())*8 + int64(n)
}

// copyBits appends n bits read from src starting at bit position *pos to
// dst, advancing *pos. src must be an unstuffed writer that is no longer
// written to.
func copyBits(dst *bitio.Writer, src *bitio.Writer, pos *int64, n uint32) {
	buf := src.Bytes()
	partial, pn := src.Partial()
	p := *pos
	for n > 0 {
		byteIdx := int(p >> 3)
		bitOff := uint8(p & 7)
		var cur byte
		if byteIdx < len(buf) {
			cur = buf[byteIdx]
		} else {
			cur = partial // already MSB-aligned; only the top pn bits are valid
			_ = pn
		}
		take := uint32(8 - bitOff)
		if take > n {
			take = n
		}
		bits := (cur >> (8 - bitOff - uint8(take))) & (1<<take - 1)
		dst.WriteBits(uint32(bits), uint8(take))
		p += int64(take)
		n -= take
	}
	*pos = p
}

// compQueue is one component's pending scan bits.
type compQueue struct {
	w       *bitio.Writer // unstuffed bit queue
	mcuBits []uint32      // bits appended per MCU of the range, in order
	dcTab   *huffman.Encoder
	acTab   *huffman.Encoder
	prevDC  int16
	rstDone int
	rpos    int64 // stitch read cursor
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
// the file comment). Create one per thread segment, feed it with ConsumeGroup, and
// call Finish once every component's rows have been consumed.
type StreamScanEncoder struct {
	f          *File
	enc        *ScanEncoder
	start, end int
	queues     []compQueue // nil for single-component scans
}

// NewStreamScanEncoder builds a streaming encoder for MCUs [start, end) of
// f's scan, seeded from the range's Huffman handover word. padBit and
// rstCount are the scan-wide values recorded in the container. bufs, when
// non-nil, supplies pooled queue storage.
func NewStreamScanEncoder(f *File, padBit uint8, rstCount int, start, end int, seed MCUPos, bufs *StreamEncBuffers) (*StreamScanEncoder, error) {
	enc, err := NewScanEncoder(f, padBit, rstCount)
	if err != nil {
		return nil, err
	}
	enc.Seed(seed)
	se := &StreamScanEncoder{f: f, enc: enc, start: start, end: end}
	if len(f.Components) == 1 {
		return se, nil
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
		q.dcTab = enc.dcEnc[c.TD]
		q.acTab = enc.acEnc[c.TA]
		q.prevDC = seed.PrevDC[ci]
		q.rstDone = int(seed.RSTSeen)
	}
	return se, nil
}

// ReleaseBuffers returns the queue storage to bufs for reuse. Call it only
// once the encoder (and any slice returned by Finish — which aliases the
// sequential writer, not the queues) is no longer needed.
func (se *StreamScanEncoder) ReleaseBuffers(bufs *StreamEncBuffers) {
	if bufs == nil {
		return
	}
	for ci := range se.queues {
		bufs.ws[ci] = se.queues[ci].w
		bufs.lens[ci] = se.queues[ci].mcuBits
	}
}

// restartCheck mirrors ScanEncoder.maybeRestart for a private DC chain: at
// the boundary before MCU m the sequential encoder would emit a restart
// marker and reset every component's predictor. Only the reset matters
// here; the marker itself is emitted during stitching.
func (q *compQueue) restartCheck(m, ri, rstLimit int) {
	if ri == 0 || m%ri != 0 || q.rstDone >= rstLimit {
		return
	}
	q.rstDone++
	q.prevDC = 0
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
		row := rows[0]
		for col := 0; col < f.MCUsWide; col++ {
			m := mcuRow*f.MCUsWide + col
			if m > se.start {
				if err := se.enc.maybeRestart(m); err != nil {
					return err
				}
			}
			if err := se.enc.encodeBlock(0, row[col*64:col*64+64]); err != nil {
				return err
			}
		}
		return nil
	}
	c := &f.Components[ci]
	q := &se.queues[ci]
	for mcuCol := 0; mcuCol < f.MCUsWide; mcuCol++ {
		m := mcuRow*f.MCUsWide + mcuCol
		if m > se.start {
			q.restartCheck(m, se.enc.ri, se.enc.rstLimit)
		}
		before := bitLen(q.w)
		for v := 0; v < c.V; v++ {
			for h := 0; h < c.H; h++ {
				bc := mcuCol*c.H + h
				if err := encodeBlockTo(q.w, q.dcTab, q.acTab, &q.prevDC, rows[v][bc*64:bc*64+64]); err != nil {
					return err
				}
			}
		}
		q.mcuBits = append(q.mcuBits, uint32(bitLen(q.w)-before))
	}
	return nil
}

// Finish completes the range: for interleaved scans it stitches the
// per-component queues into the output in MCU order, inserting restart
// markers (with padding) exactly where the sequential encoder would. When
// the range ends mid-scan, a restart marker belonging to the boundary is
// appended; when atScanEnd is set, the final byte is padded and the
// verbatim tail appended. The returned bytes alias the encoder's buffer.
func (se *StreamScanEncoder) Finish(tail []byte, atScanEnd bool) ([]byte, error) {
	if se.queues != nil {
		idx := 0
		for m := se.start; m < se.end; m++ {
			if m > se.start {
				if err := se.enc.maybeRestart(m); err != nil {
					return nil, err
				}
			}
			for ci := range se.queues {
				q := &se.queues[ci]
				copyBits(se.enc.w, q.w, &q.rpos, q.mcuBits[idx])
			}
			idx++
		}
	}
	if se.end < se.f.TotalMCUs() {
		if err := se.enc.maybeRestart(se.end); err != nil {
			return nil, err
		}
	}
	if atScanEnd {
		se.enc.Finish(tail)
	}
	return se.enc.Bytes(), nil
}
