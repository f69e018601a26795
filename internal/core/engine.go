package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"lepton/internal/arith"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

// Default memory budgets (paper §5.1, §6.2). Like the deployed system,
// this implementation streams row by row: per-request coefficient memory
// is a sliding window of block rows per component per thread segment, so
// MemDecodeBudget is a real streaming ceiling — it bounds the row windows
// (which scale with image width × segment count), not the pixel count, and
// a tall over-"plane-budget" image streams through instead of being
// rejected. MemEncodeBudget additionally caps the rows the encode producer
// may keep in flight ahead of the segment coders (the bounded ring). Only
// files whose windows cannot fit are rejected before allocating, with the
// memory exit code the §6.2 table exercises.
//
// Deployment shape (§5.1): production ran one Lepton process per core,
// each handling one conversion at a time, so every process kept a warm,
// private working set and never contended on shared allocator state. The
// in-process analogue is internal/server's sharded worker pool: one
// worker per GOMAXPROCS core, each owning a private Codec whose pooled
// buffers are reused across that shard's requests only. Connections hash
// to a home shard (affinity keeps the buffers cache-warm); idle shards
// steal queued work so a slow request does not strand its neighbors. The
// block-level hot paths under this engine (border IDCT, occupancy masks,
// 0xFF scans) dispatch to AVX2 kernels where the CPU has them — see
// internal/dct and internal/bitio, portable twins enforced bit-identical
// by differential fuzzing.
//
// Range serving (§3, §5.5): serving arbitrary HTTP Range requests out of
// recompressed files was the deployment's hard requirement, and the
// streaming architecture above makes it nearly free. The stream scan
// encoder already computes, at every MCU row, the exact Huffman handover
// word (scan byte/bit position, partial byte, restart count, DC
// predictors) needed to resume emission mid-file; the encoder persists
// that table as a CRC-guarded trailing section (seekindex.go) that legacy
// readers skip and DisableSeekIndex omits entirely. DecodeRangeToCtx
// (rangedec.go) binary-searches it to map a byte range to an MCU-row
// interval, arith-decodes only the thread segments containing those rows
// (each seeded from its recorded handover state), and re-emits exactly
// the requested scan bytes — a 1 KB read costs roughly one segment, not
// one file. Containers the planner distrusts — progressive, CMYK, legacy
// index-less, corrupt index — take a counted fallback through the full
// decode, which is always correct, only slower.
const (
	DefaultMemDecodeBudget = 24 << 20
	DefaultMemEncodeBudget = 178 << 20
)

// EncodeOptions tunes the encoder.
type EncodeOptions struct {
	// Flags select model predictors (ablations, §4.3); nil means the
	// deployed configuration (everything on).
	Flags *model.Flags
	// ForceSegments overrides the file-size-based thread segment count
	// (1..64); 0 selects automatically (Figure 7's cutoffs).
	ForceSegments int
	// CollectStats fills Result.ClassBits for Figure 4.
	CollectStats bool
	// VerifyRoundtrip decodes the result and compares with the input
	// before returning; mismatch is reported as a roundtrip failure. This
	// mirrors production admission control (§5.7).
	VerifyRoundtrip bool
	// MemDecodeBudget / MemEncodeBudget bound coefficient memory; 0 means
	// the defaults above.
	MemDecodeBudget int64
	MemEncodeBudget int64
	// SingleModel tallies statistic bins across the whole image in one
	// segment regardless of size — the "Lepton 1-way" configuration of §4.
	SingleModel bool
	// AllowProgressive enables the spectral-selection progressive path.
	// Production kept this off (§6.2: "intentionally disabled ... for
	// simplicity"); it is the optional capability the binary had.
	AllowProgressive bool
	// AllowCMYK enables four-component files ("an extra model for the 4th
	// color channel", §6.2) — also off in production.
	AllowCMYK bool
	// DisableSeekIndex omits the trailing per-MCU-row seek index (see
	// seekindex.go), reproducing the pre-index container byte for byte.
	// Index-less files stay fully decodable; range reads on them fall back
	// to full decode.
	DisableSeekIndex bool
}

// Result is the encoder's output plus accounting.
type Result struct {
	Compressed []byte
	// Segments is the thread segment count used.
	Segments int
	// ClassBits estimates compressed bits per coefficient class (Figure 4),
	// filled when CollectStats is set.
	ClassBits [model.NumClasses]float64
	// OriginalClassBits counts the Huffman-coded bits per class in the
	// original scan (Figure 4's "original bytes" column).
	OriginalClassBits [model.NumClasses]int64
	// HeaderOriginal and HeaderCompressed are the verbatim JPEG header size
	// and its zlib-compressed size.
	HeaderOriginal   int
	HeaderCompressed int
}

// SegmentCountFor returns the automatic thread-segment count for an input
// of n bytes, following the multithreading cutoffs visible in Figures 7/8.
func SegmentCountFor(n int) int {
	switch {
	case n < 100<<10:
		return 1
	case n < 400<<10:
		return 2
	case n < 3<<20/2:
		return 4
	default:
		return 8
	}
}

// segmentRanges splits the MCU rows [startRow, endRow) into nSeg contiguous
// ranges, returning the start MCU of each segment. Fewer ranges are returned
// when there are not enough MCU rows.
func segmentRanges(f *jpeg.File, nSeg, startRow, endRow int) []int {
	rows := endRow - startRow
	if nSeg > rows {
		nSeg = rows
	}
	if nSeg < 1 {
		nSeg = 1
	}
	starts := make([]int, 0, nSeg)
	for i := 0; i < nSeg; i++ {
		r := startRow + i*rows/nSeg
		starts = append(starts, r*f.MCUsWide)
	}
	return starts
}

// SeekIndexable reports whether a parsed file can carry the range-serving
// seek index: a gray/color baseline image (CMYK range reads fall back to
// full decode — §6.2 kept the fourth channel off in production, so the
// index would be dead weight) with few enough MCU rows to keep the table
// compact. The chunk layer consults it too.
func SeekIndexable(f *jpeg.File) bool {
	return len(f.Components) < 4 && f.MCUsHigh > 0 && f.MCUsHigh <= seekIndexMaxRows
}

func seekIndexEligible(opt EncodeOptions, f *jpeg.File) bool {
	return !opt.DisableSeekIndex && SeekIndexable(f)
}

// planesOf adapts a decoded scan to the model's whole-plane view.
func planesOf(f *jpeg.File, coeff [][]int16) []model.ComponentPlane {
	var planes []model.ComponentPlane
	for i := range f.Components {
		c := &f.Components[i]
		planes = append(planes, model.Plane(c.BlocksWide, c.BlocksHigh, &f.Quant[c.TQ], coeff[i]))
	}
	return planes
}

// rowRangesFor converts an MCU range [startMCU, endMCU) (row-aligned) to
// per-component block-row ranges.
func rowRangesFor(f *jpeg.File, startMCU, endMCU int) (rs, re []int) {
	startRow := startMCU / f.MCUsWide
	endRow := (endMCU + f.MCUsWide - 1) / f.MCUsWide
	for i := range f.Components {
		c := &f.Components[i]
		v := c.V
		if len(f.Components) == 1 {
			v = 1
		}
		r0 := startRow * v
		r1 := endRow * v
		if r1 > c.BlocksHigh {
			r1 = c.BlocksHigh
		}
		rs = append(rs, r0)
		re = append(re, r1)
	}
	return rs, re
}

// EncodeCtx compresses one whole baseline JPEG into a Lepton container,
// drawing the model tables and scratch from the codec's pools.
// Cancellation is observed between pipeline phases and, through per-row
// checkpoints inside every segment goroutine, mid-conversion — a cancelled
// request stops burning CPU within one block row per segment, not at the
// next request boundary. The error is ctx.Err() (errors.Is
// context.Canceled / DeadlineExceeded); pooled state is recycled exactly
// as on success, so the codec stays reusable.
func (c *Codec) EncodeCtx(ctx context.Context, data []byte, opt EncodeOptions) (*Result, error) {
	encBudget := opt.MemEncodeBudget
	if encBudget == 0 {
		encBudget = DefaultMemEncodeBudget
	}
	decBudget := opt.MemDecodeBudget
	if decBudget == 0 {
		decBudget = DefaultMemDecodeBudget
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := jpeg.ParseOpt(data, encBudget, opt.AllowCMYK)
	if err != nil {
		if opt.AllowProgressive && jpeg.ReasonOf(err) == jpeg.ReasonProgressive {
			return c.encodeProgressive(ctx, data, opt, encBudget, decBudget)
		}
		return nil, err
	}
	flags := model.DefaultFlags()
	if opt.Flags != nil {
		flags = *opt.Flags
	}
	nSeg := opt.ForceSegments
	if opt.SingleModel {
		nSeg = 1
	}
	if nSeg == 0 {
		nSeg = SegmentCountFor(len(data))
	}
	total := f.TotalMCUs()
	starts := segmentRanges(f, nSeg, 0, f.MCUsHigh)
	// The decoder will hold one row window per segment: enforce its budget
	// at encode time so every stored file is decodable within budget
	// (§6.2). The bound scales with image width and segment count, never
	// with height — a tall image streams through, it is not rejected.
	if w := DecodeWindowBytes(f, len(starts)); w > decBudget {
		return nil, &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("decode row windows need %d bytes > %d budget", w, decBudget)}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{HeaderOriginal: len(f.Header)}
	cont := &Container{
		Mode:       ModeLepton,
		OutputSize: uint32(len(data)),
		JPEGHeader: f.Header,
		Trailer:    f.Trailer,
		EmitHeader: true,
		EmitTail:   true,
		MCUStart:   0,
		MCUEnd:     uint32(total),
		ModelFlags: flagsByte(flags.EdgePrediction, flags.DCGradient),
	}

	var stats [model.NumClasses]float64
	var release func()
	if opt.CollectStats {
		// The Figure-4 statistics attribute the *original* scan's Huffman
		// bits per class, which needs the whole coefficient planes: stats
		// runs use the buffered pipeline, so (unlike the streamed path)
		// their plane bytes must fit the encode budget up front.
		if pb := int64(f.CoefficientCount()) * 2; pb > encBudget {
			return nil, &jpeg.Error{Reason: jpeg.ReasonMemEncode,
				Detail: fmt.Sprintf("stats pipeline needs %d coefficient bytes > %d budget", pb, encBudget)}
		}
		s, sb, err := c.decodeScan(f)
		if err != nil {
			return nil, err
		}
		defer c.putScanBufs(sb)
		cont.Tail, cont.PadBit, cont.RSTCount = s.Tail, s.PadBit, uint32(s.RSTCount)
		var segErr error
		cont.Segments, cont.Streams, stats, release, segErr = c.EncodeSegmentsCtx(ctx, f, s, 0, total, nSeg, flags, true)
		if segErr != nil {
			release()
			return nil, segErr
		}
		res.OriginalClassBits = originalClassBits(f, s)
		if seekIndexEligible(opt, f) {
			// The buffered pipeline recorded a position at every MCU; the
			// index wants the row starts.
			idx := make([]jpeg.MCUPos, f.MCUsHigh)
			for r := range idx {
				idx[r] = s.Positions[r*f.MCUsWide]
			}
			cont.SeekIndex = idx
		}
	} else {
		// Streamed pipeline: the sequential scan decode overlaps the
		// parallel segment encodes, row by row, under the encode budget's
		// retained-row ceiling.
		var info *jpeg.StreamScanInfo
		var rowPos []jpeg.MCUPos
		var segErr error
		cont.Segments, cont.Streams, info, rowPos, release, segErr = c.encodeSegmentsStreamed(ctx, f, starts, total, flags, encBudget)
		if segErr != nil {
			release()
			return nil, segErr
		}
		cont.Tail, cont.PadBit, cont.RSTCount = info.Tail, info.PadBit, uint32(info.RSTCount)
		if seekIndexEligible(opt, f) {
			cont.SeekIndex = rowPos
		}
	}
	res.Segments = len(cont.Segments)
	res.ClassBits = stats

	comp, err := cont.marshal(c)
	release()
	if err != nil {
		return nil, err
	}
	res.Compressed = comp
	res.HeaderCompressed = len(comp)
	for _, st := range cont.Streams {
		res.HeaderCompressed -= len(st)
	}

	if opt.VerifyRoundtrip {
		if err := c.VerifyCtx(ctx, comp, data, decBudget); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// EncodeSegments arithmetic-codes the MCU range [mStart, mEnd) — which must
// be MCU-row aligned — as nSeg thread segments, in parallel. It returns the
// segment descriptors (with handover words taken from the scan's recorded
// positions), the per-segment streams, and per-class bit statistics when
// collectStats is set. The chunk layer composes this into per-chunk
// containers; EncodeCtx uses it for whole files. Segment model codecs and
// arithmetic encoders come from the codec's pools. The returned streams
// alias pooled encoder buffers; the caller must call release once the
// stream bytes have been copied out (normally by Container marshaling) and
// must not touch their contents afterwards.
func (c *Codec) EncodeSegments(f *jpeg.File, s *jpeg.Scan, mStart, mEnd, nSeg int, flags model.Flags, collectStats bool) ([]Segment, [][]byte, [model.NumClasses]float64, func()) {
	segs, streams, stats, release, _ := c.EncodeSegmentsCtx(context.Background(), f, s, mStart, mEnd, nSeg, flags, collectStats)
	return segs, streams, stats, release
}

// EncodeSegmentsCtx is EncodeSegments under a context: every segment
// goroutine checks ctx at each block row and aborts mid-segment on
// cancellation. On a non-nil error (ctx.Err()) the segment and stream slices
// are nil; release must still be called (it is always non-nil) so pooled
// state is recycled — an aborted encode leaves the codec as reusable as a
// completed one.
func (c *Codec) EncodeSegmentsCtx(ctx context.Context, f *jpeg.File, s *jpeg.Scan, mStart, mEnd, nSeg int, flags model.Flags, collectStats bool) ([]Segment, [][]byte, [model.NumClasses]float64, func(), error) {
	startRow := mStart / f.MCUsWide
	endRow := (mEnd + f.MCUsWide - 1) / f.MCUsWide
	starts := segmentRanges(f, nSeg, startRow, endRow)
	planes := planesOf(f, s.Coeff)
	done := ctx.Done()

	type segOut struct {
		bytes []byte
		stats *model.Stats
	}
	outs := make([]segOut, len(starts))
	codecs := make([]*model.Codec, len(starts))
	encs := make([]*arith.Encoder, len(starts))
	var wg sync.WaitGroup
	for i := range starts {
		start := starts[i]
		end := mEnd
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		wg.Add(1)
		go func(i, start, end int) {
			defer wg.Done()
			rs, re := rowRangesFor(f, start, end)
			codec := c.getSegCodec(planes, rs, re, flags)
			codecs[i] = codec
			if collectStats {
				codec.Stats = &model.Stats{}
			}
			// Pre-size the arithmetic encoder to this segment's share of the
			// original scan bytes — an upper bound on its output — so the
			// segment encode never reallocates mid-stream.
			if t := f.TotalMCUs(); t > 0 {
				codec.SetSizeHint(len(f.ScanData) * (end - start) / t)
			}
			e := c.getEncoder()
			encs[i] = e
			if err := codec.EncodeSegmentCtx(e, done); err != nil {
				// Interrupted: drop the partial stream; the pooled encoder
				// is Reset on next get, so nothing leaks into later calls.
				return
			}
			outs[i] = segOut{bytes: e.Flush(), stats: codec.Stats}
		}(i, start, end)
	}
	wg.Wait()

	release := func() {
		for i := range codecs {
			c.putSegCodec(codecs[i])
			c.putEncoder(encs[i])
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, [model.NumClasses]float64{}, release, err
	}
	var segs []Segment
	var streams [][]byte
	var stats [model.NumClasses]float64
	for i, start := range starts {
		var h Handover
		if start > 0 {
			h = handoverFromPos(s.Positions[start])
		}
		segs = append(segs, Segment{
			StartMCU: uint32(start),
			Handover: h,
			ArithLen: uint32(len(outs[i].bytes)),
		})
		streams = append(streams, outs[i].bytes)
		if outs[i].stats != nil {
			for k, b := range outs[i].stats.Bits {
				stats[k] += b
			}
		}
	}
	return segs, streams, stats, release, nil
}

// encodeSegmentsStreamed is the whole-file encode pipeline: the sequential
// Huffman scan decode runs in the calling goroutine and feeds block rows
// through bounded per-segment windows into the parallel segment encoders,
// so scan decode overlaps model encode instead of completing first, and no
// whole coefficient plane is ever materialized. The first component's rows
// stream through a two-row window; later components' rows are retained
// until the segment's planar traversal reaches them, with the total
// retained bytes capped by the encode budget (raised to the structural
// minimum when the budget is smaller — the conversion streams rather than
// failing). Handover words are recorded at every MCU-row start — the
// segment handovers are the subset at segment-start rows, and the full
// table (returned as rowPos when the image is small enough to index) is
// the seek index that makes DecodeRangeToCtx segment-sized instead of
// file-sized.
//
// On success the returned streams alias pooled encoder buffers: marshal
// first, then call release. release is non-nil on every path.
func (cd *Codec) encodeSegmentsStreamed(ctx context.Context, f *jpeg.File, starts []int, total int, flags model.Flags, encBudget int64) (segs []Segment, streams [][]byte, info *jpeg.StreamScanInfo, rowPos []jpeg.MCUPos, release func(), err error) {
	nSeg := len(starts)
	ncomp := len(f.Components)
	done := ctx.Done()

	limit := encBudget
	if min := encodeMinGateBytes(f, starts, total); limit < min {
		limit = min
	}
	gate := newMemGate(limit, cd.window)
	defer gate.close()

	recs := make([]*rowRecycler, ncomp)
	rowB := make([]int64, ncomp)
	for ci := range recs {
		rowB[ci] = rowBytes(f, ci)
		recs[ci] = &rowRecycler{n: f.Components[ci].BlocksWide * 64, cd: cd}
	}

	feeds := make([][]*feedRows, nSeg)
	segRowEnd := make([]int, nSeg)
	codecs := make([]*model.Codec, nSeg)
	encs := make([]*arith.Encoder, nSeg)
	outs := make([][]byte, nSeg)
	var wg sync.WaitGroup
	for i := range starts {
		start := starts[i]
		end := total
		if i+1 < nSeg {
			end = starts[i+1]
		}
		segRowEnd[i] = (end + f.MCUsWide - 1) / f.MCUsWide
		rs, re := rowRangesFor(f, start, end)
		fs := make([]*feedRows, ncomp)
		planes := make([]model.ComponentPlane, ncomp)
		for ci := range fs {
			fs[ci] = newFeedRows(rs[ci], recs[ci], gate, rowB[ci])
			comp := &f.Components[ci]
			planes[ci] = model.ComponentPlane{BlocksWide: comp.BlocksWide,
				BlocksHigh: comp.BlocksHigh, Quant: &f.Quant[comp.TQ], Rows: fs[ci]}
		}
		feeds[i] = fs
		codec := cd.getSegCodec(planes, rs, re, flags)
		if total > 0 {
			codec.SetSizeHint(len(f.ScanData) * (end - start) / total)
		}
		codecs[i] = codec
		e := cd.getEncoder()
		encs[i] = e
		wg.Add(1)
		go func(codec *model.Codec, e *arith.Encoder, fs []*feedRows, i int) {
			defer wg.Done()
			err := codec.EncodeSegmentCtx(e, done)
			// Recycle whatever the windows still hold (the model keeps its
			// last two rows; an interrupt leaves more) so the gate frees up.
			for _, fr := range fs {
				fr.drain()
			}
			if err == nil {
				outs[i] = e.Flush()
			}
		}(codec, e, fs, i)
	}

	abortAll := func() {
		gate.abort()
		for _, fs := range feeds {
			for _, fr := range fs {
				fr.abort()
			}
		}
	}
	// Wake blocked producers and consumers when the context fires; the
	// per-row checkpoints alone cannot rouse a goroutine parked on the
	// gate or an empty feed.
	stop := make(chan struct{})
	if done != nil {
		go func() {
			select {
			case <-done:
				abortAll()
			case <-stop:
			}
		}()
	}

	router := &encodeRouter{
		f: f, gate: gate, recs: recs, feeds: feeds,
		segRowEnd: segRowEnd, segOf: make([]int, ncomp), rowB: rowB, ctx: ctx,
	}
	// Record a handover at every MCU-row start when the image is small
	// enough to index; otherwise only at segment starts, as before. Segment
	// starts are always row-aligned (segmentRanges), so the per-segment
	// handovers are a subset of the row table.
	rows := f.MCUsHigh
	indexable := rows > 0 && rows <= seekIndexMaxRows
	posAt := starts
	if indexable {
		posAt = make([]int, rows)
		for r := range posAt {
			posAt[r] = r * f.MCUsWide
		}
	}
	posOut := make([]jpeg.MCUPos, len(posAt))
	info, perr := jpeg.DecodeScanStream(f, router, posAt, posOut)
	if perr != nil {
		abortAll()
	}
	wg.Wait()
	close(stop)
	for _, rc := range recs {
		rc.drainTo(cd)
	}
	release = func() {
		for i := range codecs {
			cd.putSegCodec(codecs[i])
			cd.putEncoder(encs[i])
		}
	}
	if perr != nil {
		if sink := jpeg.SinkErr(perr); sink != nil {
			// The sink refused a row: that is this conversion's context
			// error, not scan corruption.
			perr = sink
		}
		return nil, nil, nil, nil, release, perr
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, nil, release, err
	}
	for i, start := range starts {
		pos := posOut[i]
		if indexable {
			pos = posOut[start/f.MCUsWide]
		}
		var h Handover
		if start > 0 {
			h = handoverFromPos(pos)
		}
		segs = append(segs, Segment{
			StartMCU: uint32(start),
			Handover: h,
			ArithLen: uint32(len(outs[i])),
		})
		streams = append(streams, outs[i])
	}
	if indexable {
		rowPos = posOut
	}
	return segs, streams, info, rowPos, release, nil
}

// DecodeCtx reconstructs the original bytes from a Lepton container into
// one buffer; memBudget bounds coefficient memory (0 = default). See
// DecodeToCtx.
func (c *Codec) DecodeCtx(ctx context.Context, comp []byte, memBudget int64) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.DecodeToCtx(ctx, &buf, comp, memBudget); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeToCtx streams the reconstruction into w segment by segment: output
// for segment k is written as soon as segments 0..k have completed, which
// gives the low time-to-first-byte the paper's file servers need (§3.4).
// Coefficient rows, per-segment model codecs, and the container-header
// decompressor come from the codec's pools. Cancellation is observed at
// every block row of the arithmetic decode in each segment goroutine and
// between emitted segments, so an abandoned decompression frees its worker
// promptly. A cancelled decode may already have written part of the output
// to w; the error is ctx.Err().
func (cd *Codec) DecodeToCtx(ctx context.Context, w io.Writer, comp []byte, memBudget int64) error {
	if memBudget == 0 {
		memBudget = DefaultMemDecodeBudget
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c, headBuf, err := unmarshal(comp, cd)
	if err != nil {
		return err
	}
	defer cd.putBuf(headBuf)
	if c.Mode == ModeRaw {
		// Enforce the recorded size before the first write: callers frame
		// responses from the container header, so a mismatch must fail
		// loudly instead of desyncing the caller's framing.
		if uint32(len(c.Raw)) != c.OutputSize {
			return badContainer("raw payload %d bytes, header says %d", len(c.Raw), c.OutputSize)
		}
		_, err := w.Write(c.Raw)
		return err
	}
	if c.Mode == ModeProgressive {
		return decodeProgressiveContainer(ctx, w, c, memBudget)
	}
	f, err := jpeg.ParseHeader(c.JPEGHeader)
	if err != nil {
		return fmt.Errorf("core: stored header: %w", err)
	}
	// The streaming decoder holds one (V+1)-row coefficient window per
	// component per segment — that is what the §5.1 ceiling bounds. Tall
	// over-"budget" images stream through; only absurd width × segment
	// products are rejected.
	if w := DecodeWindowBytes(f, len(c.Segments)); w > memBudget {
		return &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("decode row windows need %d bytes > %d budget", w, memBudget)}
	}
	total := f.TotalMCUs()
	if c.MCUEnd > uint32(total) || c.MCUStart > c.MCUEnd {
		return badContainer("MCU range %d..%d of %d", c.MCUStart, c.MCUEnd, total)
	}
	// Every block costs at least two bits in the regenerated scan (a DC
	// code and an EOB), so a container claiming more blocks than its
	// recorded output size could hold is corrupt. Without this check a
	// crafted header could demand minutes of decode work for a tiny
	// payload — the streaming windows bound memory, this bounds CPU. One
	// MCU row of slack: a chunk's row-aligned range may legitimately spill
	// up to a row past its byte range (the spill is clipped here and
	// carried in the next chunk's prepend).
	blocks := int64(c.MCUEnd-c.MCUStart) * int64(f.BlocksPerMCU())
	rowBlocks := int64(f.MCUsWide) * int64(f.BlocksPerMCU())
	if blocks > int64(c.OutputSize)*4+rowBlocks {
		return badContainer("%d blocks cannot fit in %d output bytes", blocks, c.OutputSize)
	}

	// Every segment runs its whole pipeline fused in its own goroutine:
	// each block row is arithmetic-decoded into a sliding ring window and
	// immediately Huffman re-encoded (via the planar row queues of
	// jpeg.StreamScanEncoder), so per-segment coefficient memory is a few
	// rows, not the segment's plane. Output is streamed in segment order
	// as each completes, so the time-to-first-byte is governed by segment
	// 0 alone, not by the slowest segment (§3.4's streaming requirement).
	flags := model.Flags{
		EdgePrediction: c.ModelFlags&1 != 0,
		DCGradient:     c.ModelFlags&2 != 0,
	}
	cancelled := ctx.Done()
	done := make([]chan segResult, len(c.Segments))
	for i := range c.Segments {
		done[i] = make(chan segResult, 1)
		go func(i int) {
			start := int(c.Segments[i].StartMCU)
			end := int(c.MCUEnd)
			if i+1 < len(c.Segments) {
				end = int(c.Segments[i+1].StartMCU)
			}
			done[i] <- cd.decodeSegmentStreamed(ctx, cancelled, f, c, i, start, end, total, flags)
		}(i)
	}

	// Stream out in order as segments complete.
	written := 0
	emit := func(b []byte) error {
		if written+len(b) > int(c.OutputSize) {
			b = b[:int(c.OutputSize)-written]
		}
		n, err := w.Write(b)
		written += n
		return err
	}
	var firstErr error
	if c.EmitHeader {
		if err := emit(c.JPEGHeader); err != nil {
			firstErr = err
		}
	}
	if firstErr == nil && len(c.Prepend) > 0 {
		if err := emit(c.Prepend); err != nil {
			firstErr = err
		}
	}
	for i := range done {
		r := <-done[i]
		if firstErr != nil {
			continue // drain remaining goroutines
		}
		if r.err != nil {
			firstErr = r.err
			continue
		}
		if err := emit(r.bytes); err != nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if c.EmitTail {
		if err := emit(c.Trailer); err != nil {
			return err
		}
	}
	if written != int(c.OutputSize) {
		return badContainer("produced %d bytes, expected %d", written, c.OutputSize)
	}
	return nil
}

// segResult is one decoded segment's regenerated scan bytes (or error).
type segResult struct {
	bytes []byte
	err   error
}

// decodeSegmentStreamed runs one thread segment's fused pipeline: the
// arithmetic decode writes block rows into a ring window sized to the
// model's two-row context (plus the MCU row the scan re-encoder groups),
// and the OnRow hook hands every completed MCU row group straight to the
// streaming scan encoder, which recycles nothing coefficient-shaped —
// what it retains per segment is Huffman bits, roughly output-sized.
func (cd *Codec) decodeSegmentStreamed(ctx context.Context, cancelled <-chan struct{}, f *jpeg.File, c *Container, i, start, end, total int, flags model.Flags) segResult {
	rs, re := rowRangesFor(f, start, end)
	ncomp := len(f.Components)

	// Carve every component's ring out of one pooled slab.
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

	codec := cd.getSegCodec(planes, rs, re, flags)
	defer cd.putSegCodec(codec)
	sbufs := cd.getStreamBufs()
	se, err := jpeg.NewStreamScanEncoder(f, c.PadBit, int(c.RSTCount), start, end,
		c.Segments[i].Handover.toPos(0), sbufs)
	if err != nil {
		cd.putStreamBufs(sbufs)
		return segResult{err: err}
	}
	// Recycle the queue storage on every path, including cancelled or
	// corrupt segments — the bytes Finish returns alias the sequential
	// writer, never the queues, so release is always safe here.
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
		group = group[:0]
		for r := row - v + 1; r <= row; r++ {
			group = append(group, rings[ci].peek(r))
		}
		return se.ConsumeGroup(ci, row/v, group)
	}

	d := arith.NewDecoder(c.Streams[i])
	if err := codec.DecodeSegmentCtx(d, cancelled); err != nil {
		if errors.Is(err, model.ErrInterrupted) {
			return segResult{err: ctx.Err()}
		}
		return segResult{err: fmt.Errorf("core: segment decode: %w", err)}
	}
	if err := d.Err(); err != nil {
		return segResult{err: fmt.Errorf("core: segment decode: %w", err)}
	}
	if err := ctx.Err(); err != nil {
		return segResult{err: err}
	}
	// Only the true end of the scan gets padding and the verbatim tail; a
	// chunk ending mid-scan leaves its final partial byte to the next
	// chunk's prepend data.
	b, err := se.Finish(c.Tail, end == total)
	if err != nil {
		return segResult{err: fmt.Errorf("core: segment encode: %w", err)}
	}
	return segResult{bytes: b}
}

// originalClassBits attributes the original scan's Huffman bits to
// coefficient classes for Figure 4. ZRL runs are attributed to the class of
// the nonzero coefficient that follows; EOB to the 7x7 class.
func originalClassBits(f *jpeg.File, s *jpeg.Scan) [model.NumClasses]int64 {
	var out [model.NumClasses]int64
	enc := newBitCounter(f)
	if enc == nil {
		return out
	}
	for ci := range f.Components {
		c := &f.Components[ci]
		blocks := c.BlocksWide * c.BlocksHigh
		var prevDC int16
		for b := 0; b < blocks; b++ {
			blk := s.Coeff[ci][b*64 : b*64+64]
			out[model.ClassDC] += enc.dcBits(ci, int32(blk[0])-int32(prevDC))
			prevDC = blk[0]
			run := 0
			pendingZRL := int64(0)
			for k := 1; k < 64; k++ {
				pos := zigzagPos(k)
				v := int32(blk[pos])
				if v == 0 {
					run++
					continue
				}
				for run >= 16 {
					pendingZRL += enc.acSymBits(ci, 0xF0)
					run -= 16
				}
				cls := model.Class77
				if pos < 8 || pos%8 == 0 {
					cls = model.ClassEdge
				}
				out[cls] += pendingZRL + enc.acBits(ci, run, v)
				pendingZRL = 0
				run = 0
			}
			if run > 0 {
				out[model.Class77] += enc.acSymBits(ci, 0x00)
			}
		}
	}
	return out
}
