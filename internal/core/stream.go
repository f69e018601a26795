package core

import (
	"context"

	"lepton/internal/jpeg"
)

// This file holds the row-window streaming machinery shared by the decode
// and encode pipelines (paper §3.4, §5.1): one ring window of coefficient
// block rows per live thread segment, in either direction, and the encode's
// position pass, which finds the Huffman handover word each encode segment
// starts its own scan decode from.

// --- window geometry ------------------------------------------------------

// vEff returns component ci's effective vertical sampling factor: a
// single-component scan is never interleaved, so its MCU is one block.
func vEff(f *jpeg.File, ci int) int {
	if len(f.Components) == 1 {
		return 1
	}
	return f.Components[ci].V
}

// windowRowsFor returns the ring capacity for a component with effective
// vertical sampling v: the v block rows of the MCU row being consumed by
// the scan re-encoder plus the row above them, which the model predictors
// (7x7 average, Lakhani row, DC gradient via the rolling edge caches) read.
func windowRowsFor(v int) int {
	if v < 1 {
		v = 1
	}
	return v + 1
}

func rowBytes(f *jpeg.File, ci int) int64 {
	return int64(f.Components[ci].BlocksWide) * 64 * 2
}

// DecodeWindowBytes returns the peak coefficient bytes a streaming decode
// or encode of f holds with nSeg thread segments: one (V+1)-row ring per
// component per live segment, and at most maxLiveSegments segments run at
// once. This — not the whole coefficient planes — is what MemDecodeBudget
// bounds; it grows with image *width* and live segments, never with image
// height or with segments beyond the live ones.
func DecodeWindowBytes(f *jpeg.File, nSeg int) int64 {
	live := min(max(nSeg, 1), maxLiveSegments)
	var per int64
	for ci := range f.Components {
		per += int64(windowRowsFor(vEff(f, ci))) * rowBytes(f, ci)
	}
	return per * int64(live)
}

// --- ring windows ----------------------------------------------------------

// ringRows is a fixed ring of the last windowRowsFor(v) block rows of one
// component. A decode unit hands it to the model as its model.RowWindow:
// the model decodes into the row Row returns, and rows older than the ring
// capacity are recycled (and re-zeroed) in place, after OnRow has handed
// them to the scan re-encoder. An encode segment's scan decoder fills it
// the same way, through Row, and the model reads the rows back with peek.
type ringRows struct {
	bufs [][]int16
	top  int
}

func newRingRows(bufs [][]int16) *ringRows { return &ringRows{bufs: bufs, top: -1} }

func (r *ringRows) Row(row int) []int16 {
	buf := r.bufs[row%len(r.bufs)]
	if row > r.top {
		clear(buf)
		r.top = row
	}
	return buf
}

// peek returns a still-retained row without recycling anything.
func (r *ringRows) peek(row int) []int16 { return r.bufs[row%len(r.bufs)] }

// getWindow returns one live segment's rings, a ring per component carved
// out of one pooled slab, and charges their DecodeWindowBytes(f, 1) to the
// coefficient-window gauge. release gives back both.
func (cd *Codec) getWindow(f *jpeg.File) (rings []*ringRows, release func()) {
	winBytes := DecodeWindowBytes(f, 1)
	slab := cd.getSlab(int(winBytes / 2))
	cd.window.Add(winBytes)
	rings = make([]*ringRows, len(f.Components))
	off := 0
	for ci := range rings {
		n := f.Components[ci].BlocksWide * 64
		bufs := make([][]int16, windowRowsFor(vEff(f, ci)))
		for k := range bufs {
			bufs[k] = slab[off : off+n : off+n]
			off += n
		}
		rings[ci] = newRingRows(bufs)
	}
	return rings, func() {
		cd.window.Add(-winBytes)
		cd.putSlab(slab)
	}
}

// --- the encode's position pass and segment windows ------------------------

// ScanPass is an encode's position pass (§3.4): a Huffman decode of the
// scan, in the calling goroutine and in scan order, that keeps no
// coefficients and records the handover word at every MCU-row start. Each
// encode segment decodes its own span of the scan from the word at its
// first row, so the pass goes no further than the last segment's start.
// The chunk layer advances it first, to find the rows its chunks' byte
// boundaries cut at, and hands it to the encode, which carries on from
// there: a chunked put decodes each row's position once.
type ScanPass struct {
	dec  *jpeg.RowDecoder
	rows []jpeg.MCUPos
}

// NewScanPass returns a pass at the start of f's scan.
func NewScanPass(f *jpeg.File) (*ScanPass, error) {
	dec, err := jpeg.NewRowDecoder(f)
	if err != nil {
		return nil, err
	}
	rows := make([]jpeg.MCUPos, 0, max(f.MCUsHigh, 1))
	return &ScanPass{dec: dec, rows: append(rows, dec.Pos())}, nil
}

// Advance decodes MCU rows until the handover word at row r (below
// MCUsHigh) is known, checking ctx before each row.
func (p *ScanPass) Advance(ctx context.Context, r int) error {
	for len(p.rows) <= r {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p.dec.Decode(nil, nil); err != nil {
			return err
		}
		p.rows = append(p.rows, p.dec.Pos())
	}
	return nil
}

// Rows returns the handover words found so far: index r is MCU row r's.
func (p *ScanPass) Rows() []jpeg.MCUPos { return p.rows }

// segRows is an encode segment's row source: its own scan decoder, forked
// from the position pass at the segment's first MCU row, decodes the MCU
// row holding a block row when the model first asks for it, into the
// segment's rings. The model reads each component's rows in MCU-row order
// and never further back than the row above, so the (V+1)-row rings hold
// everything it still needs. Every MCU-row start it passes is recorded in
// pos, which the segments share: each writes only its own rows.
type segRows struct {
	dec   *jpeg.RowDecoder
	rings []*ringRows
	group [][][]int16 // group[ci][v]: the MCU row being decoded
	pos   []jpeg.MCUPos
	err   error // the scan decode's error, once it has failed
}

// reach decodes MCU rows until row mr is in the rings, reporting false once
// the scan decode has failed.
func (s *segRows) reach(mr int) bool {
	for s.err == nil && s.dec.Row() <= mr {
		r := s.dec.Row()
		s.pos[r] = s.dec.Pos()
		for ci, g := range s.group {
			for v := range g {
				g[v] = s.rings[ci].Row(r*len(g) + v)
			}
		}
		s.err = s.dec.Decode(s.group, nil)
	}
	return s.err == nil
}

// pullRows is segRows' model.RowWindow for component ci; a failed scan
// decode refuses the row, which stops the segment.
type pullRows struct {
	s     *segRows
	ci, v int
}

func (p pullRows) Row(r int) []int16 {
	if !p.s.reach(r / p.v) {
		return nil
	}
	return p.s.rings[p.ci].peek(r)
}
