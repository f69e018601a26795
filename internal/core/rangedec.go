package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"lepton/internal/jpeg"
)

// Range decode: serve an arbitrary byte range [off, off+n) of the
// reconstructed JPEG without regenerating the whole file. The seek index
// (see seekindex.go) records the scan position at every MCU row, so a
// request maps to a row interval, the row interval to the thread segments
// containing it, and only those segments are arithmetic-decoded, each from
// its start only as far as the last MCU row the request needs — a 1 KB
// read out of a large file costs at most one segment, not one file.
//
// A range read is the same planned decode as a full one (runPlan): only
// the units differ. The fast path plans them from a baseline container's
// valid index. Four-component (CMYK) files, legacy index-less containers,
// and any geometry the validator distrusts decode every segment whole and
// keep the bytes inside the range; progressive scans take a full decode
// and a slice. Those fallbacks are always correct, only slower, and each
// cause is counted so operators can see what their corpus hits. (Raw
// passthrough containers are served by slicing the stored bytes directly.)

// ErrInvalidRange reports a negative offset or length.
var ErrInvalidRange = errors.New("core: negative range offset or length")

// RangeStats returns cumulative process-wide counters for range decodes,
// summed over every codec: how many requests were served, how many took
// the indexed fast path, how many fell back to full decode (split by
// cause), and how many thread segments and block rows the fast path
// decoded in total.
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
func (cd *Codec) DecodeRangeCtx(ctx context.Context, comp []byte, off, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := cd.DecodeRangeToCtx(ctx, &buf, comp, off, n); err != nil {
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
// seek index and four-component files decode every segment whole;
// progressive scans are served by a full decode that skips everything
// outside the range.
func (cd *Codec) DecodeRangeToCtx(ctx context.Context, dst io.Writer, comp []byte, off, n int64) (int64, error) {
	cd.stats.Add("range_requests", 1)
	if off < 0 || n < 0 {
		return 0, ErrInvalidRange
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

	switch c.Mode {
	case ModeRaw:
		raw, err := rawPayload(c)
		if err != nil {
			return 0, err
		}
		cd.stats.Add("range_fast", 1)
		m, err := dst.Write(raw[off:end])
		return int64(m), err
	case ModeProgressive:
		cd.stats.Add("range_fallback_unsupported", 1)
		return decodeRangeFallback(ctx, dst, c, off, end)
	}

	f, err := jpeg.ParseHeader(c.JPEGHeader)
	if err != nil {
		return 0, fmt.Errorf("core: stored header: %w", err)
	}
	var p decodePlan
	if len(f.Components) >= 4 {
		cd.stats.Add("range_fallback_unsupported", 1)
		p = segmentPlan(f, c)
	} else if pl, ok := planRange(f, c); !ok {
		cd.stats.Add("range_fallback_no_index", 1)
		p = segmentPlan(f, c)
	} else {
		p = pl.units(f, c, off, end)
	}
	written, err := cd.runPlan(ctx, dst, f, c, p, off, end)
	if err == nil && p.indexed {
		cd.stats.Add("range_fast", 1)
	}
	return written, err
}

// decodeRangeFallback serves [off, end) of a progressive container through
// its full decode, discarding bytes outside the window.
func decodeRangeFallback(ctx context.Context, dst io.Writer, c *Container, off, end int64) (int64, error) {
	sw := &sliceWriter{dst: dst, off: off, end: end}
	if err := decodeProgressiveContainer(ctx, sw, c); err != nil {
		return sw.written, err
	}
	if sw.written != end-off {
		return sw.written, badContainer("range fallback produced %d bytes, want %d", sw.written, end-off)
	}
	return sw.written, nil
}

// sliceWriter forwards only the bytes falling in [off, end) of the stream
// written through it; pos is the stream offset of the next byte.
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
}

// planRange checks that the container's seek index and segment table
// describe a geometry the fast path can trust. Any doubt returns ok=false
// and the caller decodes every segment whole — which will either succeed
// (index merely missing/damaged) or report the real corruption.
func planRange(f *jpeg.File, c *Container) (rangePlan, bool) {
	var pl rangePlan
	w := f.MCUsWide
	total := f.TotalMCUs()
	if len(c.SeekIndex) == 0 || w <= 0 || total <= 0 {
		return pl, false
	}
	if c.MCUStart > c.MCUEnd || int(c.MCUEnd) > total || int(c.MCUStart)%w != 0 {
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
	pl.emitBase = prefixLen(c)
	pl.scanEndOut = int64(c.OutputSize)
	if c.EmitTail {
		pl.scanEndOut -= int64(len(c.Trailer))
	}
	if pl.scanEndOut < pl.emitBase {
		return pl, false
	}
	return pl, true
}

// units plans the decode of [off, end): binary-search the seek index for
// the MCU rows overlapping the scan portion of the window, and cut one unit
// per thread segment containing them, seeded from the index entry at its
// first row.
func (pl rangePlan) units(f *jpeg.File, c *Container, off, end int64) decodePlan {
	idx := c.SeekIndex
	base0 := idx[0].ByteOff
	w := f.MCUsWide
	p := decodePlan{scanPos: pl.scanEndOut, indexed: true}
	s0, s1 := max(off, pl.emitBase), min(end, pl.scanEndOut)
	if s1 <= s0 {
		return p
	}
	// Map the output window into scan space and find the covering rows:
	// the last row starting at or before z0 through the first row starting
	// at or after z1.
	z0 := s0 - pl.emitBase + base0
	z1 := s1 - pl.emitBase + base0
	k0 := sort.Search(len(idx), func(k int) bool { return idx[k].ByteOff > z0 }) - 1
	if k0 < 0 {
		k0 = 0
	}
	k1 := sort.Search(len(idx), func(k int) bool { return idx[k].ByteOff >= z1 })
	gr0, gr1 := pl.r0+k0, pl.r0+k1
	for i := range c.Segments {
		segStart, segEnd := segmentSpan(c, i)
		u0 := max(gr0, segStart/w)
		u1 := min(gr1, (segEnd+w-1)/w)
		if u1 <= u0 {
			continue
		}
		want := int64(-1)
		if u1 < pl.rEnd {
			want = idx[u1-pl.r0].ByteOff - idx[u0-pl.r0].ByteOff
		}
		p.units = append(p.units, decodeUnit{seg: i, u0: u0, u1: u1,
			segStart: segStart, segEnd: segEnd,
			encStart: max(u0*w, segStart), encEnd: min(u1*w, segEnd),
			seed: idx[u0-pl.r0], want: want})
	}
	if len(p.units) > 0 {
		p.scanPos = pl.emitBase + idx[p.units[0].u0-pl.r0].ByteOff - base0
	}
	return p
}
