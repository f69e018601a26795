package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"lepton/internal/arith"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

// Range decode: serve an arbitrary byte range [off, off+n) of the
// reconstructed JPEG without regenerating the whole file. The seek index
// (see seekindex.go) records the scan position at every MCU row, so a
// request maps to a row interval, the row interval to the thread segments
// containing it, and only those segments are arithmetic-decoded — a 1 KB
// read out of a large file costs roughly one segment, not one file.
//
// The fast path requires a baseline container carrying a valid index.
// Everything else — progressive scans, four-component (CMYK) files, legacy
// index-less containers, or any geometry the validator distrusts — falls
// back to a full decode that discards the bytes outside the range. The
// fallback is always correct, only slower, and each cause is counted so
// operators can see what their corpus hits. (Raw passthrough containers
// are served by slicing the stored bytes directly.)

// ErrInvalidRange reports a negative offset or length.
var ErrInvalidRange = errors.New("core: negative range offset or length")

// RangeStats returns cumulative process-wide counters for range decodes,
// summed over every codec: how many requests were served, how many took
// the indexed fast path, how many fell back to full decode (split by
// cause), and how many thread segments the fast path decoded in total.
func RangeStats() map[string]int64 {
	snap := process.Snapshot()
	out := make(map[string]int64, len(rangeCounters))
	for _, k := range rangeCounters {
		out[k] = snap[k]
	}
	return out
}

// RangeLength returns the byte count a range decode of (off, n) against
// comp will produce — the clamp of [off, off+n) to the container's
// recorded output size — without decoding anything. Servers use it to
// frame streaming responses before the first payload byte.
func RangeLength(comp []byte, off, n int64) (int64, error) {
	if off < 0 || n < 0 {
		return 0, ErrInvalidRange
	}
	size, err := ContainerOutputSize(comp)
	if err != nil {
		return 0, err
	}
	return clampRange(off, n, int64(size)), nil
}

func clampRange(off, n, size int64) int64 {
	if off >= size {
		return 0
	}
	if n > size-off {
		n = size - off
	}
	return n
}

// DecodeRangeCtx decodes exactly the byte range [off, off+n) of the
// original file, clamped to its size, into one buffer; see
// DecodeRangeToCtx.
func (cd *Codec) DecodeRangeCtx(ctx context.Context, comp []byte, off, n int64, memBudget int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := cd.DecodeRangeToCtx(ctx, &buf, comp, off, n, memBudget); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRangeToCtx streams the byte range [off, off+n) of the
// reconstructed file into dst and returns how many bytes it wrote (the
// clamp of the range to the file size; RangeLength predicts it). Header
// and trailer bytes are served straight from the stored verbatim copies;
// scan bytes come from re-encoding only the MCU rows the range overlaps,
// one goroutine per touched thread segment. Containers without a usable
// seek index, progressive scans, and four-component files are served by a
// full decode that skips everything outside the range.
func (cd *Codec) DecodeRangeToCtx(ctx context.Context, dst io.Writer, comp []byte, off, n int64, memBudget int64) (int64, error) {
	cd.stats.Add("range_requests", 1)
	if off < 0 || n < 0 {
		return 0, ErrInvalidRange
	}
	if memBudget == 0 {
		memBudget = DefaultMemDecodeBudget
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c, headBuf, err := unmarshal(comp, cd)
	if err != nil {
		return 0, err
	}
	defer cd.putBuf(headBuf)

	size := int64(c.OutputSize)
	end := off + n
	if off > size {
		off = size
	}
	if end > size || end < 0 { // end < 0: off+n overflowed int64
		end = size
	}
	if end <= off {
		cd.stats.Add("range_fast", 1)
		return 0, nil
	}

	if c.Mode == ModeRaw {
		if uint32(len(c.Raw)) != c.OutputSize {
			return 0, badContainer("raw payload %d bytes, header says %d", len(c.Raw), c.OutputSize)
		}
		cd.stats.Add("range_fast", 1)
		m, err := dst.Write(c.Raw[off:end])
		return int64(m), err
	}
	if c.Mode == ModeProgressive {
		cd.stats.Add("range_fallback_unsupported", 1)
		return cd.decodeRangeFallback(ctx, dst, comp, off, end, memBudget)
	}

	f, err := jpeg.ParseHeader(c.JPEGHeader)
	if err != nil {
		return 0, fmt.Errorf("core: stored header: %w", err)
	}
	if len(f.Components) >= 4 {
		cd.stats.Add("range_fallback_unsupported", 1)
		return cd.decodeRangeFallback(ctx, dst, comp, off, end, memBudget)
	}
	pl, ok := planRange(f, c)
	if !ok {
		cd.stats.Add("range_fallback_no_index", 1)
		return cd.decodeRangeFallback(ctx, dst, comp, off, end, memBudget)
	}
	return cd.decodeRangeIndexed(ctx, dst, f, c, pl, off, end, memBudget)
}

// decodeRangeFallback serves [off, end) through the ordinary full decode,
// discarding bytes outside the window. Used whenever the fast path cannot
// run; its only cost over the fast path is time.
func (cd *Codec) decodeRangeFallback(ctx context.Context, dst io.Writer, comp []byte, off, end, memBudget int64) (int64, error) {
	sw := &sliceWriter{dst: dst, off: off, end: end}
	if err := cd.DecodeToCtx(ctx, sw, comp, memBudget); err != nil {
		return sw.written, err
	}
	if sw.written != end-off {
		return sw.written, badContainer("range fallback produced %d bytes, want %d", sw.written, end-off)
	}
	return sw.written, nil
}

// sliceWriter forwards only the bytes falling in [off, end) of the stream
// written through it.
type sliceWriter struct {
	dst      io.Writer
	off, end int64
	pos      int64
	written  int64
}

func (s *sliceWriter) Write(p []byte) (int, error) {
	n := len(p)
	a, z := s.off-s.pos, s.end-s.pos
	s.pos += int64(n)
	if a < 0 {
		a = 0
	}
	if z > int64(n) {
		z = int64(n)
	}
	if z > a {
		m, err := s.dst.Write(p[a:z])
		s.written += int64(m)
		if err != nil {
			return int(a) + m, err
		}
	}
	return n, nil
}

// rangePlan is the validated geometry of an indexed baseline container:
// output-space zone boundaries plus the container's MCU-row window. All
// distrust lives in planRange; once a plan exists the fast path treats
// any internal inconsistency as a hard container error, because by then
// bytes may already have been written.
type rangePlan struct {
	emitBase   int64 // output offset where scan bytes start
	scanEndOut int64 // output offset where scan bytes end (trailer after)
	r0, rEnd   int   // container's MCU-row window [r0, rEnd)
	total      int   // f.TotalMCUs()
}

// planRange checks that the container's seek index and segment table
// describe a geometry the fast path can trust. Any doubt returns ok=false
// and the caller falls back to full decode — which will either succeed
// (index merely missing/damaged) or report the real corruption.
func planRange(f *jpeg.File, c *Container) (rangePlan, bool) {
	var pl rangePlan
	w := f.MCUsWide
	pl.total = f.TotalMCUs()
	if len(c.SeekIndex) == 0 || w <= 0 || pl.total <= 0 {
		return pl, false
	}
	if c.MCUStart > c.MCUEnd || int(c.MCUEnd) > pl.total || int(c.MCUStart)%w != 0 {
		return pl, false
	}
	pl.r0 = int(c.MCUStart) / w
	pl.rEnd = (int(c.MCUEnd) + w - 1) / w
	if len(c.SeekIndex) != pl.rEnd-pl.r0 {
		return pl, false
	}
	if len(c.Segments) == 0 || len(c.Streams) != len(c.Segments) {
		return pl, false
	}
	prev := -1
	for i := range c.Segments {
		sm := int(c.Segments[i].StartMCU)
		if i == 0 && sm != int(c.MCUStart) {
			return pl, false
		}
		if sm%w != 0 || sm <= prev || sm >= int(c.MCUEnd) {
			return pl, false
		}
		prev = sm
	}
	hdrLen := 0
	if c.EmitHeader {
		hdrLen = len(c.JPEGHeader)
	}
	pl.emitBase = int64(hdrLen + len(c.Prepend))
	pl.scanEndOut = int64(c.OutputSize)
	if c.EmitTail {
		pl.scanEndOut -= int64(len(c.Trailer))
	}
	if pl.scanEndOut < pl.emitBase {
		return pl, false
	}
	return pl, true
}

// rangeUnit is the slice of one thread segment a range decode must
// regenerate: global MCU rows [u0, u1) intersected with the segment's MCU
// span [segStart, segEnd).
type rangeUnit struct {
	seg              int
	u0, u1           int // global MCU rows
	segStart, segEnd int // the segment's full MCU span (model decode span)
	encStart, encEnd int // MCUs actually re-encoded
}

// decodeRangeIndexed is the fast path: binary-search the seek index for
// the MCU rows overlapping the scan portion of [off, end), decode only
// the thread segments containing them, and stitch the output from the
// verbatim header/prepend, the regenerated row bytes, and the verbatim
// trailer.
func (cd *Codec) decodeRangeIndexed(ctx context.Context, dst io.Writer, f *jpeg.File, c *Container, pl rangePlan, off, end, memBudget int64) (int64, error) {
	idx := c.SeekIndex
	base0 := idx[0].ByteOff
	w := f.MCUsWide

	var units []rangeUnit
	s0, s1 := off, end
	if s0 < pl.emitBase {
		s0 = pl.emitBase
	}
	if s1 > pl.scanEndOut {
		s1 = pl.scanEndOut
	}
	if s1 > s0 {
		// Map the output window into scan space and find the covering rows:
		// the last row starting at or before z0 through the first row
		// starting at or after z1.
		z0 := s0 - pl.emitBase + base0
		z1 := s1 - pl.emitBase + base0
		k0 := sort.Search(len(idx), func(k int) bool { return idx[k].ByteOff > z0 }) - 1
		if k0 < 0 {
			k0 = 0
		}
		k1 := sort.Search(len(idx), func(k int) bool { return idx[k].ByteOff >= z1 })
		gr0, gr1 := pl.r0+k0, pl.r0+k1
		for i := range c.Segments {
			segStart := int(c.Segments[i].StartMCU)
			segEnd := int(c.MCUEnd)
			if i+1 < len(c.Segments) {
				segEnd = int(c.Segments[i+1].StartMCU)
			}
			u0, u1 := gr0, gr1
			if sr := segStart / w; u0 < sr {
				u0 = sr
			}
			if er := (segEnd + w - 1) / w; u1 > er {
				u1 = er
			}
			if u1 <= u0 {
				continue
			}
			encStart, encEnd := u0*w, u1*w
			if encStart < segStart {
				encStart = segStart
			}
			if encEnd > segEnd {
				encEnd = segEnd
			}
			units = append(units, rangeUnit{seg: i, u0: u0, u1: u1,
				segStart: segStart, segEnd: segEnd, encStart: encStart, encEnd: encEnd})
		}
		if wb := DecodeWindowBytes(f, len(units)); wb > memBudget {
			return 0, &jpeg.Error{Reason: jpeg.ReasonMemDecode,
				Detail: fmt.Sprintf("decode row windows need %d bytes > %d budget", wb, memBudget)}
		}
		cd.stats.Add("range_segments_decoded", int64(len(units)))
	}

	cancelled := ctx.Done()
	done := make([]chan segResult, len(units))
	for j := range units {
		done[j] = make(chan segResult, 1)
		go func(j int) {
			done[j] <- cd.decodeSegmentRange(ctx, cancelled, f, c, units[j], pl)
		}(j)
	}

	var written int64
	write := func(b []byte) error {
		m, err := dst.Write(b)
		written += int64(m)
		return err
	}
	// Prefix zone: verbatim header then prepend bytes.
	var firstErr error
	if off < pl.emitBase {
		var hdr []byte
		if c.EmitHeader {
			hdr = c.JPEGHeader
		}
		pos := int64(0)
		for _, b := range [][]byte{hdr, c.Prepend} {
			a, z := off-pos, end-pos
			if a < 0 {
				a = 0
			}
			if z > int64(len(b)) {
				z = int64(len(b))
			}
			if z > a {
				if err := write(b[a:z]); err != nil {
					firstErr = err
					break
				}
			}
			pos += int64(len(b))
		}
	}
	// Scan zone: regenerated rows, emitted in segment order as they land.
	for j := range done {
		r := <-done[j]
		if firstErr != nil {
			continue // drain remaining goroutines
		}
		if r.err != nil {
			firstErr = r.err
			continue
		}
		u := units[j]
		// A unit that stops before the container's last row must land
		// exactly on the next row's recorded offset, or the index lied.
		if u.u1 < pl.rEnd {
			want := idx[u.u1-pl.r0].ByteOff - idx[u.u0-pl.r0].ByteOff
			if int64(len(r.bytes)) != want {
				firstErr = badContainer("seek index: rows %d..%d produced %d scan bytes, index says %d",
					u.u0, u.u1, len(r.bytes), want)
				continue
			}
		}
		pos := pl.emitBase + (idx[u.u0-pl.r0].ByteOff - base0)
		a, z := s0-pos, s1-pos
		if a < 0 {
			a = 0
		}
		if z > int64(len(r.bytes)) {
			z = int64(len(r.bytes))
		}
		if z > a {
			if err := write(r.bytes[a:z]); err != nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return written, firstErr
	}
	// Trailer zone.
	if end > pl.scanEndOut {
		a := off - pl.scanEndOut
		if a < 0 {
			a = 0
		}
		if err := write(c.Trailer[a : end-pl.scanEndOut]); err != nil {
			return written, err
		}
	}
	if err := ctx.Err(); err != nil {
		return written, err
	}
	if written != end-off {
		return written, badContainer("range decode produced %d bytes, want %d", written, end-off)
	}
	cd.stats.Add("range_fast", 1)
	return written, nil
}

// decodeSegmentRange is decodeSegmentStreamed restricted to one unit: the
// arithmetic decode still starts at the segment boundary (that is where
// the model and encoder handover state were recorded), but only the MCU
// rows in [u0, u1) are fed to the scan re-encoder, the encoder is seeded
// from the seek index entry at u0, and the decode early-exits after the
// last component finishes row u1 — the planar traversal visits components
// in order, so clipping only the last component's row range stops the
// stream right after the final row the range needs while leaving every
// earlier component's (preceding) bits fully consumed.
func (cd *Codec) decodeSegmentRange(ctx context.Context, cancelled <-chan struct{}, f *jpeg.File, c *Container, u rangeUnit, pl rangePlan) segResult {
	rs, re := rowRangesFor(f, u.segStart, u.segEnd)
	ncomp := len(f.Components)
	last := ncomp - 1
	if clip := u.u1 * vEff(f, last); clip < re[last] {
		re[last] = clip
	}

	winBytes := DecodeWindowBytes(f, 1)
	slab := cd.getRowBuf(int(winBytes / 2))
	defer cd.putRowBuf(slab)
	cd.window.Add(winBytes)
	defer cd.window.Add(-winBytes)
	rings := make([]*ringRows, ncomp)
	planes := make([]model.ComponentPlane, ncomp)
	off := 0
	for ci := 0; ci < ncomp; ci++ {
		comp := &f.Components[ci]
		n := comp.BlocksWide * 64
		bufs := make([][]int16, windowRowsFor(vEff(f, ci)))
		for k := range bufs {
			bufs[k] = slab[off : off+n : off+n]
			off += n
		}
		rings[ci] = newRingRows(bufs)
		planes[ci] = model.ComponentPlane{BlocksWide: comp.BlocksWide,
			BlocksHigh: comp.BlocksHigh, Quant: &f.Quant[comp.TQ], Rows: rings[ci]}
	}

	flags := model.Flags{
		EdgePrediction: c.ModelFlags&1 != 0,
		DCGradient:     c.ModelFlags&2 != 0,
	}
	codec := cd.getSegCodec(planes, rs, re, flags)
	defer cd.putSegCodec(codec)
	sbufs := cd.getStreamBufs()
	seed := c.SeekIndex[u.u0-pl.r0]
	se, err := jpeg.NewStreamScanEncoder(f, c.PadBit, int(c.RSTCount), u.encStart, u.encEnd, seed, sbufs)
	if err != nil {
		cd.putStreamBufs(sbufs)
		return segResult{err: err}
	}
	defer func() {
		se.ReleaseBuffers(sbufs)
		cd.putStreamBufs(sbufs)
	}()
	group := make([][]int16, 0, 4)
	codec.OnRow = func(ci, row int) error {
		v := vEff(f, ci)
		if (row+1)%v != 0 {
			return nil // MCU row group not complete yet
		}
		mr := row / v
		if mr < u.u0 || mr >= u.u1 {
			return nil // outside the requested rows: decode, don't re-encode
		}
		group = group[:0]
		for r := row - v + 1; r <= row; r++ {
			group = append(group, rings[ci].peek(r))
		}
		return se.ConsumeGroup(ci, mr, group)
	}

	d := arith.NewDecoder(c.Streams[u.seg])
	if err := codec.DecodeSegmentCtx(d, cancelled); err != nil {
		if errors.Is(err, model.ErrInterrupted) {
			return segResult{err: ctx.Err()}
		}
		return segResult{err: fmt.Errorf("core: segment range decode: %w", err)}
	}
	if err := d.Err(); err != nil {
		return segResult{err: fmt.Errorf("core: segment range decode: %w", err)}
	}
	if err := ctx.Err(); err != nil {
		return segResult{err: err}
	}
	b, err := se.Finish(c.Tail, u.encEnd == pl.total)
	if err != nil {
		return segResult{err: fmt.Errorf("core: segment range encode: %w", err)}
	}
	return segResult{bytes: b}
}
