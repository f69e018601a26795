package model

import (
	"errors"
	"math/bits"

	"lepton/internal/arith"
	"lepton/internal/dct"
)

// Flags enables or disables the two headline predictors, for the §4.3
// ablation study.
type Flags struct {
	// EdgePrediction uses the Lakhani-inspired 1-D DCT continuity predictor
	// for the 7x1/1x7 coefficients; when false they use the same averaged
	// context as the 7x7 class ("baseline PackJPG" treatment).
	EdgePrediction bool
	// DCGradient uses the 16-pair gradient interpolation DC predictor; when
	// false the DC is predicted from the previous block's DC as in the 2007
	// PackJPG paper.
	DCGradient bool
}

// DefaultFlags enables everything, matching the deployed system.
func DefaultFlags() Flags { return Flags{EdgePrediction: true, DCGradient: true} }

// RowWindow is the codec's view of one component's coefficient storage: a
// source (encode) or sink (decode) of block rows. The codec touches at most
// two rows at a time — the row it is coding and the row above it — so an
// implementation only has to keep that window alive; it is free to recycle
// anything older. Row(r) returns the BlocksWide*64 coefficients of block
// row r (raster order across blocks, raster order within each block), or
// nil to abort the segment (the codec returns ErrInterrupted). The codec
// calls Row exactly once per row, in ascending order within each
// component's segment range; the slice for row r must stay valid until
// Row(r+2) is requested.
type RowWindow interface {
	Row(r int) []int16
}

// SlabRows is the whole-plane RowWindow: every row is a slice into one
// backing slab, so nothing is ever recycled. Stride is BlocksWide*64.
type SlabRows struct {
	Coeff  []int16
	Stride int
}

func (s SlabRows) Row(r int) []int16 { return s.Coeff[r*s.Stride : (r+1)*s.Stride] }

// ComponentPlane describes one color component's coefficient plane.
type ComponentPlane struct {
	BlocksWide, BlocksHigh int
	Quant                  *[64]uint16
	// Rows provides the block-row storage. Whole-plane callers use
	// SlabRows (see Plane); streaming pipelines hand the codec a sliding
	// window that retains only the rows the model predictors read.
	Rows RowWindow
	// TurnRows is how many block rows the component codes per turn of the
	// segment traversal, which visits components round-robin. Its rows
	// per MCU row (the effective vertical sampling factor) give MCU-row
	// order: all components of MCU row r, then row r+1. Zero codes the
	// component's whole segment range in one turn: planar order, every
	// row of component 0, then component 1, and so on. No context crosses
	// components, so the order moves only where each component's bits sit
	// in the stream.
	TurnRows int
}

// Plane builds a whole-plane ComponentPlane over a coefficient slab in
// raster block order, 64 coefficients per block.
func Plane(bw, bh int, q *[64]uint16, coeff []int16) ComponentPlane {
	return ComponentPlane{BlocksWide: bw, BlocksHigh: bh, Quant: q, Rows: SlabRows{Coeff: coeff, Stride: bw * 64}}
}

// Slab returns the whole-plane backing slab when the plane was built over
// one (see Plane), or nil for streaming row windows.
func (p ComponentPlane) Slab() []int16 {
	if s, ok := p.Rows.(SlabRows); ok {
		return s.Coeff
	}
	return nil
}

// Codec codes the blocks of one thread segment. Each segment gets fresh
// 50-50 bins that adapt independently, which is what makes segments
// parallel-decodable at a small compression cost (§3.4).
type Codec struct {
	flags Flags
	comps []ComponentPlane
	bins  []*chanBins
	// pred holds each component's predictor tables, built from its
	// quantization table when the codec is (re)targeted.
	pred []predTables

	rowStart, rowEnd []int

	// st is the per-component traversal state: row cursor and rolling
	// caches, reused (via Reset) across conversions.
	st []segState

	// sizeHint, when positive, pre-sizes the arithmetic encoder's output
	// buffer before a segment encode (see SetSizeHint).
	sizeHint int

	// OnRow, when non-nil, is called after every completed block row with
	// the component index and absolute block row. Streaming pipelines hook
	// it to consume finished rows (decode: hand the row to the scan
	// re-encoder; its error aborts the segment) before the window is
	// allowed to recycle them.
	OnRow func(ci, row int) error

	// Stats is filled on the encode path when non-nil.
	Stats *Stats
}

// ErrCorrupt is returned when a decoded symbol is structurally impossible —
// only a damaged or truncated Lepton stream produces it.
var ErrCorrupt = errors.New("model: corrupt coefficient stream")

// ErrInterrupted is returned by the *Ctx segment loops when the done channel
// closes before the segment completes. Callers translate it into their
// context's error; the codec itself stays reusable (Reset restores it to a
// fresh state exactly as after a completed segment).
var ErrInterrupted = errors.New("model: segment interrupted")

// NewCodec builds a segment codec over the given component planes. rowStart
// and rowEnd give the block-row range of this segment per component
// (rowEnd exclusive). Neighbor context never crosses the segment's top
// boundary, so segments decode independently.
func NewCodec(comps []ComponentPlane, rowStart, rowEnd []int, flags Flags) *Codec {
	c := &Codec{
		flags: flags,
		// Copy comps rather than alias the caller's slice: sibling segment
		// codecs are built from one shared planes slice, and a pooled codec
		// writes c.comps in Reset/Release — aliasing made those writes land
		// in a backing array shared across codecs, a data race once two
		// pooled siblings were reused concurrently.
		comps:    append([]ComponentPlane(nil), comps...),
		rowStart: append([]int(nil), rowStart...),
		rowEnd:   append([]int(nil), rowEnd...),
	}
	for range comps {
		c.bins = append(c.bins, &chanBins{})
	}
	c.st = make([]segState, len(comps))
	c.buildPred()
	return c
}

// Reset re-targets a used codec at a new set of planes, clearing the
// adaptive statistic bins so it behaves exactly like a freshly allocated
// codec while reusing the bin tables and scratch — the dominant per-segment
// allocations. Callers pooling codecs across conversions use this instead of
// NewCodec.
func (c *Codec) Reset(comps []ComponentPlane, rowStart, rowEnd []int, flags Flags) {
	c.flags = flags
	c.comps = append(c.comps[:0], comps...)
	c.rowStart = append(c.rowStart[:0], rowStart...)
	c.rowEnd = append(c.rowEnd[:0], rowEnd...)
	for len(c.bins) < len(comps) {
		c.bins = append(c.bins, &chanBins{})
	}
	for i := range comps {
		*c.bins[i] = chanBins{}
	}
	for len(c.st) < len(comps) {
		c.st = append(c.st, segState{})
	}
	c.sizeHint = 0
	c.OnRow = nil
	c.Stats = nil
	c.buildPred()
}

func (c *Codec) buildPred() {
	for len(c.pred) < len(c.comps) {
		c.pred = append(c.pred, predTables{})
	}
	for i := range c.comps {
		c.pred[i].build(c.comps[i].Quant)
	}
}

// SetSizeHint records an output pre-size hint in bytes, typically the
// original JPEG scan bytes covered by this codec's segment — an upper bound
// on the arithmetic-coded stream, since Lepton compresses below the Huffman
// coding it replaces. EncodeSegment grows the encoder once up front so
// steady-state segment encodes never reallocate mid-stream.
func (c *Codec) SetSizeHint(n int) { c.sizeHint = n }

// Release drops the codec's references to coefficient planes so a pooled
// codec does not pin multi-megabyte buffers between conversions. The bin
// tables and scratch stay allocated for reuse via Reset.
func (c *Codec) Release() {
	for i := range c.comps {
		c.comps[i] = ComponentPlane{}
	}
	for i := range c.st {
		c.st[i].above = nil
	}
	c.comps = c.comps[:0]
	c.OnRow = nil
	c.Stats = nil
}

// BinCount returns the number of statistic bins in use by this codec.
func (c *Codec) BinCount() int { return len(c.comps) * BinsPerChannel }

// ModelBytes returns the approximate memory footprint of the bins.
func (c *Codec) ModelBytes() int { return c.BinCount() * 4 }

// segState is one component's traversal state within a segment: the next
// block row to code, the row above it, and the rolling caches.
type segState struct {
	row      int     // next block row to code
	above    []int16 // the previous block row, nil before the first
	nzAbove  []uint8
	nzCur    []uint8
	edAbove  []blockEdges
	edCur    []blockEdges
	hasAbove bool
	prevDC   int32
}

// reset positions the state at block row row of a plane w blocks wide,
// growing the cache arrays only when needed. Stale contents are harmless:
// nzAbove/edAbove are read only once hasAbove is set (after the first
// nextRow), and nzCur/edCur are written at every column before any read.
func (s *segState) reset(w, row int) {
	if cap(s.nzAbove) < w {
		s.nzAbove = make([]uint8, w)
		s.nzCur = make([]uint8, w)
		s.edAbove = make([]blockEdges, w)
		s.edCur = make([]blockEdges, w)
	} else {
		s.nzAbove = s.nzAbove[:w]
		s.nzCur = s.nzCur[:w]
		s.edAbove = s.edAbove[:w]
		s.edCur = s.edCur[:w]
	}
	s.row = row
	s.above = nil
	s.hasAbove = false
	s.prevDC = 0
}

func (s *segState) nextRow(cur []int16) {
	s.nzAbove, s.nzCur = s.nzCur, s.nzAbove
	s.edAbove, s.edCur = s.edCur, s.edAbove
	s.above = cur
	s.hasAbove = true
	s.prevDC = 0
	s.row++
}

// EncodeSegment writes all blocks of the segment to e in the traversal
// order the planes' TurnRows select.
func (c *Codec) EncodeSegment(e *arith.Encoder) {
	if c.sizeHint > 0 {
		e.Grow(c.sizeHint)
	}
	em := &emitter{e: e, stats: c.Stats}
	// The shared code path returns errors only on the decode side.
	_ = c.run(em, nil)
}

// EncodeSegmentCtx is EncodeSegment with a cancellation checkpoint at every
// block row: when done closes, the loop stops and ErrInterrupted comes back.
// A nil done channel never fires, making the checkpoint free.
func (c *Codec) EncodeSegmentCtx(e *arith.Encoder, done <-chan struct{}) error {
	if c.sizeHint > 0 {
		e.Grow(c.sizeHint)
	}
	return c.run(&emitter{e: e, stats: c.Stats}, done)
}

// DecodeSegment reads all blocks of the segment from d into the coefficient
// planes.
func (c *Codec) DecodeSegment(d *arith.Decoder) error {
	return c.run(&emitter{d: d}, nil)
}

// DecodeSegmentCtx is DecodeSegment with the same per-row cancellation
// checkpoint as EncodeSegmentCtx.
func (c *Codec) DecodeSegmentCtx(d *arith.Decoder, done <-chan struct{}) error {
	return c.run(&emitter{d: d}, done)
}

// run is the one segment traversal: turns go round-robin over the
// components, each coding the next TurnRows block rows of one component
// (all of its remaining rows when TurnRows is zero), until every component
// has reached its segment end.
func (c *Codec) run(em *emitter, done <-chan struct{}) error {
	for ci := range c.comps {
		c.st[ci].reset(c.comps[ci].BlocksWide, c.rowStart[ci])
	}
	for more := true; more; {
		more = false
		for ci := range c.comps {
			cp := &c.comps[ci]
			st := &c.st[ci]
			stop := c.rowEnd[ci]
			if cp.TurnRows > 0 && st.row+cp.TurnRows < stop {
				stop = st.row + cp.TurnRows
			}
			for st.row < stop {
				if done != nil {
					select {
					case <-done:
						return ErrInterrupted
					default:
					}
				}
				row := st.row
				curRow := cp.Rows.Row(row)
				if curRow == nil {
					// A streaming window aborts the segment by refusing
					// the row (the scan decode feeding it failed).
					return ErrInterrupted
				}
				for col := 0; col < cp.BlocksWide; col++ {
					if err := c.codeBlock(em, ci, col, st, curRow); err != nil {
						return err
					}
				}
				if c.OnRow != nil {
					if err := c.OnRow(ci, row); err != nil {
						return err
					}
				}
				st.nextRow(curRow)
			}
			more = more || st.row < c.rowEnd[ci]
		}
	}
	return nil
}

// codeBlock transports one block through the model in either direction.
// curRow holds the block row being coded; st.above is the previous block
// row of the same component (nil on the segment's first row).
func (c *Codec) codeBlock(em *emitter, ci, col int, st *segState, curRow []int16) error {
	cp := &c.comps[ci]
	ch := c.bins[ci]
	q := cp.Quant
	pt := &c.pred[ci]
	cur := curRow[col*64 : col*64+64]
	aboveRow := st.above

	var above, left, aboveLeft []int16
	if st.hasAbove {
		above = aboveRow[col*64 : col*64+64]
		if col > 0 {
			aboveLeft = aboveRow[(col-1)*64 : col*64]
		}
	}
	if col > 0 {
		left = curRow[(col-1)*64 : col*64]
	}

	// --- Nonzero count of the 7x7 class (A.2.1). ---
	var nzA, nzL int32
	if st.hasAbove {
		nzA = int32(st.nzAbove[col])
	}
	if col > 0 {
		nzL = int32(st.nzCur[col-1])
	}
	ctxN := ilog159((nzA + nzL) / 2)
	em.cls = Class77
	n77 := 0
	var nzMask uint64
	if em.e != nil {
		// One vectorized occupancy scan answers the 7x7 count here and both
		// edge counts below (encode only touches cur with idempotent writes,
		// so the mask stays valid for the whole block).
		nzMask = dct.NonzeroMask(cur)
		n77 = bits.OnesCount64(nzMask & mask49)
	}
	n77 = em.codeTree(ch.nz77[ctxN][:], n77, 6)
	if n77 > 49 {
		return ErrCorrupt
	}

	// --- 7x7 coefficients in zigzag order. ---
	em.cls = Class77
	rem := n77
	for k := 0; k < 49 && rem > 0; k++ {
		pos := zigzag49[k]
		avg := avg77(above, left, aboveLeft, pos)
		aB := ilog2(avg, avgBuckets)
		nB := ilog159(int32(rem))
		mb := &ch.coef77[k][aB][nB]
		v := em.codeVal(mb, &ch.res77, int32(cur[pos]))
		cur[pos] = int16(v)
		if v != 0 {
			rem--
		}
	}
	if rem > 0 {
		return ErrCorrupt
	}

	// --- Edge coefficients: 7x1 row then 1x7 column (A.2.2). ---
	ctxE := ilog2(int32(n77), 8)
	for orient := 0; orient < 2; orient++ {
		em.cls = ClassEdge
		nEdge := 0
		if em.e != nil {
			nEdge = bits.OnesCount64(nzMask & edgeMask[orient])
		}
		nEdge = em.codeTree(ch.nzEdge[orient][ctxE][:], nEdge, 3)
		em.cls = ClassEdge
		rem := nEdge
		for i := 1; i < 8 && rem > 0; i++ {
			pos := i // orient 0: top row, raster position u
			if orient == 1 {
				pos = i * 8 // left column, raster position v*8
			}
			var pred int32
			if c.flags.EdgePrediction {
				if orient == 0 && st.hasAbove {
					pred = lakhaniRow(above, cur, pt, i)
				} else if orient == 1 && col > 0 {
					pred = lakhaniCol(left, cur, pt, i)
				}
			} else {
				pred = avg77(above, left, aboveLeft, uint8(pos))
			}
			pb := predBucket(pred)
			mb := &ch.coefEdge[orient][i-1][pb]
			v := em.codeVal(mb, &ch.resEdge, int32(cur[pos]))
			cur[pos] = int16(v)
			if v != 0 {
				rem--
			}
		}
		if rem > 0 {
			return ErrCorrupt
		}
	}

	// --- DC, last, so every AC coefficient informs the prediction
	// (A.2.3). ---
	var abEd, lfEd *blockEdges
	if st.hasAbove {
		abEd = &st.edAbove[col]
	}
	if col > 0 {
		lfEd = &st.edCur[col-1]
	}
	var pred int32
	var conf int
	var px dct.Block
	if c.flags.DCGradient {
		// One inverse transform serves both the DC predictor and the edge
		// cache update below.
		acOnlyPixels(cur, q, &px)
		pred, conf = dcPrediction(&px, pt, abEd, lfEd, st.prevDC)
	} else {
		pred = st.prevDC
		conf = confBuckets - 1
	}
	em.cls = ClassDC
	delta := em.codeVal(&ch.dc[conf], &ch.resDC, int32(cur[0])-pred)
	v := pred + delta
	if v > 32767 || v < -32768 {
		return ErrCorrupt
	}
	cur[0] = int16(v)

	// --- Update rolling caches. ---
	st.nzCur[col] = uint8(n77)
	if c.flags.DCGradient {
		// The edge cache feeds only the DC gradient predictor; skip it
		// entirely in the PackJPG-style configuration.
		edgesFromPixels(&px, v, q, &st.edCur[col])
	}
	st.prevDC = int32(cur[0])
	return nil
}

// The per-class nonzero counts are popcounts over dct.NonzeroMask's
// raster-order occupancy bits:
//
//	mask49      the 7x7 interior (u >= 1 and v >= 1): every row byte 1..7
//	            with its u=0 bit cleared;
//	edgeMask[0] the top row u = 1..7;
//	edgeMask[1] the left column v = 1..7 (bits 8, 16, ..., 56).
const mask49 = 0xFEFEFEFEFEFEFE00

var edgeMask = [2]uint64{0x00000000000000FE, 0x0101010101010100}
