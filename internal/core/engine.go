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

// Memory budgets (paper §5.1, §6.2): the deployed limits, fixed like
// every other production setting. Like the deployed system, this
// implementation streams row by row, in both directions: per-request
// coefficient memory is a sliding window of block rows per component per
// live thread segment (at most maxLiveSegments run at once, however many a
// file has), so MemDecodeBudget is a real streaming ceiling — it bounds the
// row windows (which scale with image width × live segments), not the pixel
// count, and a tall over-"plane-budget" image streams through instead of
// being rejected. An encode holds the same windows as the decode of its
// output, so the decode budget, checked at encode time, bounds both.
// MemEncodeBudget bounds what an encode may hold outside those windows: the
// parser refuses a file whose single row window exceeds it, and the
// Figure-4 statistics (CollectStats) need the whole coefficient planes to
// fit in it. Only files whose windows cannot fit are rejected before
// allocating, with the memory exit code the §6.2 table exercises.
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
// readers skip; every SeekIndexable file's container carries it.
// DecodeRangeToCtx (rangedec.go) binary-searches it to map a byte range to
// an MCU-row interval, arith-decodes only the thread segments containing
// those rows (each seeded from its recorded handover state), and re-emits
// exactly the requested scan bytes. Segments are coded in MCU-row order,
// so a 1 KB read decodes one segment only up to the last MCU row it needs.
// A full decode is the same run over the whole file: every decode is a
// plan of units (MCU-row spans of one thread segment) that one unit
// decoder regenerates and one stitcher writes out. Containers the planner
// distrusts — legacy index-less, corrupt index, CMYK — take a counted
// fallback to whole-segment units; progressive containers (decode-only)
// take a full decode and a slice. Both are always correct, only slower.
const (
	MemDecodeBudget = 24 << 20
	MemEncodeBudget = 178 << 20
)

// EncodeOptions tunes the encoder.
type EncodeOptions struct {
	// Flags select model predictors (ablations, §4.3); nil means the
	// deployed configuration (everything on).
	Flags *model.Flags
	// ForceSegments overrides the file-size-based thread segment count
	// (1..MaxSegments); 0 selects automatically (SegmentCountFor). Other
	// values are refused before any work. However many segments a file
	// has, at most eight run at once, so the count does not change the
	// memory a conversion holds.
	ForceSegments int
	// CollectStats fills Result.ClassBits for Figure 4.
	CollectStats bool
	// VerifyRoundtrip decodes the result and compares with the input
	// before returning; mismatch is reported as a roundtrip failure. This
	// mirrors production admission control (§5.7).
	VerifyRoundtrip bool
	// SingleModel tallies statistic bins across the whole image in one
	// segment regardless of size — the "Lepton 1-way" configuration of §4.
	SingleModel bool
	// AllowCMYK enables four-component files ("an extra model for the 4th
	// color channel", §6.2), which production kept off.
	AllowCMYK bool
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

// MaxSegments is the most thread segments an encoder writes into one
// container.
const MaxSegments = 64

// maxLiveSegments is the most thread segments of one conversion that run
// at once (§5.1's eight threads); the rest wait their turn in index order.
// So the row windows and model codecs a conversion holds, and the budgets
// that bound them, do not grow with its segment count. It is a fixed
// number, not GOMAXPROCS, so whether a file is admitted does not depend on
// the machine that checks it.
const maxLiveSegments = 8

// segmentTargetBytes is the input bytes per thread segment from 1.5 MB up.
// A range read decodes its segment from the start to the last MCU row it
// needs, so it walks at most about this many bytes of scan. Against eight
// segments per 4 MiB chunk, 128 KiB cuts a 4 KiB read's median time by
// about two thirds and makes the Lepton bytes about 1% larger; 64 KiB
// would save a little more time for twice the size cost.
const segmentTargetBytes = 128 << 10

// SegmentCountFor returns the automatic thread-segment count for an input
// of n bytes. Below 1.5 MB it follows the multithreading cutoffs visible
// in Figures 7/8; from there up it is one segment per segmentTargetBytes,
// at most MaxSegments.
func SegmentCountFor(n int) int {
	switch {
	case n < 100<<10:
		return 1
	case n < 400<<10:
		return 2
	case n < 3<<20/2:
		return 4
	default:
		return min(MaxSegments, (n+segmentTargetBytes-1)/segmentTargetBytes)
	}
}

// launcher starts the units of one conversion (thread segments, or decode
// units) in index order, each in its own goroutine, with at most
// maxLiveSegments holding a slot at once. A slot is freed by done: by the
// unit itself when it finishes, or by the caller once it has written the
// unit's output.
type launcher struct {
	slots chan struct{}
	wg    sync.WaitGroup
}

func newLauncher() *launcher {
	return &launcher{slots: make(chan struct{}, maxLiveSegments)}
}

// start waits for a free slot, then runs fn in a new goroutine. It
// returns false, starting nothing, if stop closes while it waits.
func (l *launcher) start(stop <-chan struct{}, fn func()) bool {
	select {
	case <-stop:
		return false
	case l.slots <- struct{}{}:
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		fn()
	}()
	return true
}

// done frees one slot.
func (l *launcher) done() { <-l.slots }

// wait returns once every started unit's goroutine has returned.
func (l *launcher) wait() { l.wg.Wait() }

// SegmentStarts splits the MCU rows [startRow, endRow) into nSeg contiguous
// ranges, returning the start MCU of each segment. Fewer ranges are returned
// when there are not enough MCU rows.
func SegmentStarts(f *jpeg.File, nSeg, startRow, endRow int) []int {
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

// planesOf adapts a decoded scan to the model's whole-plane view, in the
// traversal order of the given container version.
func planesOf(f *jpeg.File, coeff [][]int16, version byte) []model.ComponentPlane {
	var planes []model.ComponentPlane
	for i := range f.Components {
		c := &f.Components[i]
		p := model.Plane(c.BlocksWide, c.BlocksHigh, &f.Quant[c.TQ], coeff[i])
		p.TurnRows = turnRows(f, i, version)
		planes = append(planes, p)
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
	// A count outside 0..MaxSegments would write a container the decoder
	// refuses.
	if opt.ForceSegments < 0 || opt.ForceSegments > MaxSegments {
		return nil, fmt.Errorf("core: ForceSegments %d outside 0..%d", opt.ForceSegments, MaxSegments)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := jpeg.ParseOpt(data, MemEncodeBudget, opt.AllowCMYK)
	if err != nil {
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
	starts := SegmentStarts(f, nSeg, 0, f.MCUsHigh)
	// The decoder will hold one row window per live segment: enforce its
	// budget at encode time so every stored file is decodable within budget
	// (§6.2). The bound scales with image width and live segments, never
	// with height — a tall image streams through, it is not rejected.
	if w := DecodeWindowBytes(f, len(starts)); w > MemDecodeBudget {
		return nil, &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("decode row windows need %d bytes > %d budget", w, MemDecodeBudget)}
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
		MCUEnd:     uint32(f.TotalMCUs()),
	}

	if opt.CollectStats {
		// The Figure-4 statistics attribute the *original* scan's Huffman
		// bits per class, which needs the whole coefficient planes: their
		// bytes must fit the encode budget up front.
		if pb := int64(f.CoefficientCount()) * 2; pb > MemEncodeBudget {
			return nil, &jpeg.Error{Reason: jpeg.ReasonMemEncode,
				Detail: fmt.Sprintf("stats pipeline needs %d coefficient bytes > %d budget", pb, MemEncodeBudget)}
		}
		s, err := jpeg.DecodeScan(f)
		if err != nil {
			return nil, err
		}
		res.OriginalClassBits = originalClassBits(f, s)
	}
	enc, err := c.EncodeScanCtx(ctx, f, starts, nil, flags, opt.CollectStats)
	if err != nil {
		return nil, err
	}
	cont.Segments, cont.Streams, cont.ModelFlags = enc.Segments, enc.Streams, enc.ModelFlags
	cont.Tail, cont.PadBit, cont.RSTCount = enc.Scan.Tail, enc.Scan.PadBit, uint32(enc.Scan.RSTCount)
	if SeekIndexable(f) {
		cont.SeekIndex = enc.RowPos
	}
	res.Segments = len(cont.Segments)
	res.ClassBits = enc.ClassBits

	comp, err := cont.marshal(c)
	enc.Release()
	if err != nil {
		return nil, err
	}
	res.Compressed = comp
	res.HeaderCompressed = len(comp)
	for _, st := range cont.Streams {
		res.HeaderCompressed -= len(st)
	}

	if opt.VerifyRoundtrip {
		if err := c.VerifyCtx(ctx, comp, data); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// EncodeSegments arithmetic-codes the MCU range [mStart, mEnd) — which must
// be MCU-row aligned — of a scan already decoded into whole coefficient
// planes, as nSeg thread segments, at most maxLiveSegments of them in
// parallel. It exists only for perfbench's model sweep (perfbench/sweep.go),
// which times the model encode apart from the scan decode. It is the last
// plane-fed coder: the sweep's scan re-encode (jpeg.EncodeScan) runs the
// StreamScanEncoder that every decode runs, but its model encode times this
// path, while every stored container comes from EncodeScanCtx. The next
// change to the benchmark deletes this with its caller (ROADMAP item 2). It
// returns the segment descriptors (handover words taken from the scan's
// recorded positions), the per-segment streams, and per-class bit
// statistics when collectStats is set. The streams alias pooled encoder
// buffers: call release once they have been copied out, and do not touch
// them afterwards.
func (c *Codec) EncodeSegments(f *jpeg.File, s *jpeg.Scan, mStart, mEnd, nSeg int, flags model.Flags, collectStats bool) ([]Segment, [][]byte, [model.NumClasses]float64, func()) {
	starts := SegmentStarts(f, nSeg, mStart/f.MCUsWide, (mEnd+f.MCUsWide-1)/f.MCUsWide)
	planes := planesOf(f, s.Coeff, Version)
	outs := make([][]byte, len(starts))
	stats := make([]*model.Stats, len(starts))
	encs := make([]*arith.Encoder, len(starts))
	l := newLauncher()
	for i := range starts {
		end := mEnd
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		l.start(nil, func() {
			defer l.done()
			rs, re := rowRangesFor(f, starts[i], end)
			codec := c.getSegCodec(planes, rs, re, flags)
			defer c.putSegCodec(codec)
			if collectStats {
				stats[i] = &model.Stats{}
				codec.Stats = stats[i]
			}
			// Pre-size the arithmetic encoder to this segment's share of the
			// original scan bytes, an upper bound on its output.
			codec.SetSizeHint(len(f.ScanData) * (end - starts[i]) / f.TotalMCUs())
			encs[i] = c.getEncoder()
			codec.EncodeSegment(encs[i])
			outs[i] = encs[i].Flush()
		})
	}
	l.wait()
	var segs []Segment
	var sum [model.NumClasses]float64
	for i, start := range starts {
		var h Handover
		if start > 0 {
			h = handoverFromPos(s.Positions[start])
		}
		segs = append(segs, Segment{StartMCU: uint32(start), Handover: h, ArithLen: uint32(len(outs[i]))})
		if stats[i] != nil {
			for k, b := range stats[i].Bits {
				sum[k] += b
			}
		}
	}
	return segs, outs, sum, func() {
		for _, e := range encs {
			c.putEncoder(e)
		}
	}
}

// ScanEncode is EncodeScanCtx's output. The streams alias pooled encoder
// buffers: marshal first, then call Release.
type ScanEncode struct {
	// Segments and Streams are the thread segments in MCU order, one
	// stream per segment.
	Segments []Segment
	Streams  [][]byte
	// ClassBits is the per-class bit count summed over segments, filled
	// when the encode collects statistics (Figure 4).
	ClassBits [model.NumClasses]float64
	// Scan holds the scan-wide facts a container records: pad bit,
	// restart count and tail garbage.
	Scan *jpeg.StreamScanInfo
	// RowPos is the handover state at every MCU-row start: the seek index,
	// for a file SeekIndexable admits.
	RowPos []jpeg.MCUPos
	// ModelFlags is the container encoding of the flags the model ran with.
	ModelFlags uint8
	// Release recycles the pooled encoders the streams alias.
	Release func()
}

// EncodeScanCtx is the one encode pipeline, behind both EncodeCtx and the
// chunk layer: it arithmetic-codes f's whole scan as the thread segments
// that begin at starts (ascending, MCU-row aligned, the first 0; segment i
// ends where segment i+1 begins, the last at the end of the scan). A chunked
// file is one such encode over every chunk's segments, each chunk's
// container taking its slice.
//
// It has the decode's shape (§3.4, §5.1). The position pass (pass, or a new
// one when nil) runs in the calling goroutine and launches segment k as
// soon as it reaches k's first MCU row. Each segment decodes its own span of
// the scan, from that row's handover word, into one ring window per
// component that its model coder pulls rows from. At most maxLiveSegments
// segments run at once, so an encode holds at most DecodeWindowBytes(f,
// len(starts)) of coefficients and never a whole plane. The handover word
// at every MCU-row start comes back as RowPos, the seek index that makes
// DecodeRangeToCtx segment-sized instead of file-sized; the segment
// handovers are its entries at the segment starts. With collectStats each
// segment coder tallies its bits per coefficient class.
//
// Errors come in scan order, whichever goroutine meets one first. The pass
// decodes everything before the last segment in order, so it meets any
// fault there first; the last segment decodes exactly as the pass would
// (jpeg.RowDecoder.Fork), so its fault, final pad bits and tail are the
// sequential decode's. On error every pooled resource is already recycled.
func (cd *Codec) EncodeScanCtx(ctx context.Context, f *jpeg.File, starts []int, pass *ScanPass, flags model.Flags, collectStats bool) (*ScanEncode, error) {
	var err error
	if pass == nil {
		if pass, err = NewScanPass(f); err != nil {
			return nil, err
		}
	}
	nSeg := len(starts)
	rowPos := make([]jpeg.MCUPos, f.MCUsHigh)
	segs := make([]segEncode, nSeg)
	l := newLauncher()
	for i, start := range starts {
		row := start / f.MCUsWide
		if err = pass.Advance(ctx, row); err != nil {
			break
		}
		end := f.TotalMCUs()
		if i+1 < nSeg {
			end = starts[i+1]
		}
		dec := pass.dec.Fork(row, pass.rows[row])
		if !l.start(ctx.Done(), func() {
			defer l.done()
			segs[i] = cd.encodeSegment(ctx, f, dec, start, end, i == nSeg-1, rowPos, flags, collectStats)
		}) {
			break
		}
	}
	l.wait()
	// The streams alias the encoders, so those stay held until release.
	out := &ScanEncode{RowPos: rowPos, ModelFlags: flagsByte(flags.EdgePrediction, flags.DCGradient), Release: func() {
		for _, s := range segs {
			cd.putEncoder(s.enc)
		}
	}}
	if err == nil {
		err = ctx.Err()
	}
	for i := 0; err == nil && i < nSeg; i++ {
		err = segs[i].err
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	for i, start := range starts {
		var h Handover
		if start > 0 {
			h = handoverFromPos(rowPos[start/f.MCUsWide])
		}
		out.Segments = append(out.Segments, Segment{
			StartMCU: uint32(start),
			Handover: h,
			ArithLen: uint32(len(segs[i].out)),
		})
		out.Streams = append(out.Streams, segs[i].out)
		if st := segs[i].stats; st != nil {
			for k, b := range st.Bits {
				out.ClassBits[k] += b
			}
		}
	}
	out.Scan = segs[nSeg-1].info
	return out, nil
}

// segEncode is one encode segment's outcome: its arithmetic stream (which
// aliases the pooled encoder), its class statistics when collected, and for
// the last segment the scan-wide facts.
type segEncode struct {
	enc   *arith.Encoder
	out   []byte
	stats *model.Stats
	info  *jpeg.StreamScanInfo
	err   error
}

// encodeSegment codes the thread segment of MCUs [start, end): dec, forked
// at its first row, decodes the scan into the segment's ring window as the
// model pulls rows (segRows), recording every MCU-row start's handover word
// in rowPos. The last segment then finishes the scan.
func (cd *Codec) encodeSegment(ctx context.Context, f *jpeg.File, dec *jpeg.RowDecoder, start, end int, last bool, rowPos []jpeg.MCUPos, flags model.Flags, collectStats bool) (r segEncode) {
	rings, release := cd.getWindow(f)
	defer release()
	src := &segRows{dec: dec, rings: rings, group: make([][][]int16, len(rings)), pos: rowPos}
	planes := make([]model.ComponentPlane, len(rings))
	for ci := range planes {
		comp := &f.Components[ci]
		v := vEff(f, ci)
		src.group[ci] = make([][]int16, v)
		planes[ci] = model.ComponentPlane{BlocksWide: comp.BlocksWide, BlocksHigh: comp.BlocksHigh,
			Quant: &f.Quant[comp.TQ], Rows: pullRows{s: src, ci: ci, v: v}, TurnRows: v}
	}
	rs, re := rowRangesFor(f, start, end)
	codec := cd.getSegCodec(planes, rs, re, flags)
	defer cd.putSegCodec(codec)
	if collectStats {
		r.stats = &model.Stats{}
		codec.Stats = r.stats
	}
	// Pre-size the arithmetic encoder to this segment's share of the
	// original scan bytes, an upper bound on its output.
	if total := f.TotalMCUs(); total > 0 {
		codec.SetSizeHint(len(f.ScanData) * (end - start) / total)
	}
	r.enc = cd.getEncoder()
	err := codec.EncodeSegmentCtx(r.enc, ctx.Done())
	switch {
	case src.err != nil:
		r.err = src.err
	case err != nil:
		if r.err = ctx.Err(); r.err == nil {
			r.err = err
		}
	case last:
		r.info, r.err = dec.Finish()
	}
	if r.err == nil {
		r.out = r.enc.Flush()
	}
	return r
}

// DecodeCtx reconstructs the original bytes from a Lepton container into
// one buffer. See DecodeToCtx.
func (c *Codec) DecodeCtx(ctx context.Context, comp []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.DecodeToCtx(ctx, &buf, comp); err != nil {
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
func (cd *Codec) DecodeToCtx(ctx context.Context, w io.Writer, comp []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c, headBuf, err := unmarshal(comp, cd)
	if err != nil {
		return err
	}
	defer cd.putBuf(headBuf)
	switch c.Mode {
	case ModeRaw:
		raw, err := rawPayload(c)
		if err != nil {
			return err
		}
		_, err = w.Write(raw)
		return err
	case ModeProgressive:
		return decodeProgressiveContainer(ctx, w, c)
	}
	f, err := jpeg.ParseHeader(c.JPEGHeader)
	if err != nil {
		return fmt.Errorf("core: stored header: %w", err)
	}
	_, err = cd.runPlan(ctx, w, f, c, segmentPlan(f, c), 0, int64(c.OutputSize))
	return err
}

// rawPayload returns a raw container's stored bytes. The recorded size is
// enforced before the first write: callers frame responses from the
// container header, so a mismatch must fail loudly instead of desyncing
// the caller's framing.
func rawPayload(c *Container) ([]byte, error) {
	if uint32(len(c.Raw)) != c.OutputSize {
		return nil, badContainer("raw payload %d bytes, header says %d", len(c.Raw), c.OutputSize)
	}
	return c.Raw, nil
}

// A decodeUnit is a span of MCU rows inside one thread segment, the piece
// of work every ModeLepton decode is planned in. The segment is
// arithmetic-decoded from its start, where the model state and handover
// word were recorded; only MCU rows [u0, u1) are re-encoded into scan
// bytes, starting from the scan position seed, and the decode stops once
// MCU row u1-1 is done. A full decode has one whole-segment unit per
// segment.
type decodeUnit struct {
	seg              int
	u0, u1           int // global MCU rows re-encoded
	segStart, segEnd int // the segment's MCU span
	encStart, encEnd int // MCUs re-encoded: rows [u0, u1) within the segment
	seed             jpeg.MCUPos
	// want is the byte count the seek index promises for the unit, or -1
	// when nothing can check it.
	want int64
}

// decodePlan is one ModeLepton decode: its units in output order and the
// output offset of the first unit's first byte (of the trailer when there
// are no units). indexed marks a plan drawn from the seek index, the range
// fast path.
type decodePlan struct {
	units   []decodeUnit
	scanPos int64
	indexed bool
}

// segmentSpan returns thread segment i's MCU span.
func segmentSpan(c *Container, i int) (start, end int) {
	start, end = int(c.Segments[i].StartMCU), int(c.MCUEnd)
	if i+1 < len(c.Segments) {
		end = int(c.Segments[i+1].StartMCU)
	}
	return start, end
}

// prefixLen is the output length of the verbatim zone ahead of the scan
// bytes: the header, when emitted, then the prepend bytes.
func prefixLen(c *Container) int64 {
	n := int64(len(c.Prepend))
	if c.EmitHeader {
		n += int64(len(c.JPEGHeader))
	}
	return n
}

// segmentPlan decodes every thread segment whole, each seeded from its
// recorded handover word.
func segmentPlan(f *jpeg.File, c *Container) decodePlan {
	w := f.MCUsWide
	p := decodePlan{scanPos: prefixLen(c)}
	for i := range c.Segments {
		start, end := segmentSpan(c, i)
		p.units = append(p.units, decodeUnit{seg: i, u0: start / w, u1: (end + w - 1) / w,
			segStart: start, segEnd: end, encStart: start, encEnd: end,
			seed: c.Segments[i].Handover.toPos(0), want: -1})
	}
	return p
}

// rows returns the block rows of each component a unit decodes: its
// segment's rows, clipped after MCU row u1-1. In MCU-row order every
// component is clipped, so the stream is read no further than the last row
// the unit needs; a VersionPlanar segment holds each earlier component's
// rows in full before the last component's, so there only the last
// component is.
func (u *decodeUnit) rows(f *jpeg.File, version byte) (rs, re []int) {
	rs, re = rowRangesFor(f, u.segStart, u.segEnd)
	for ci := range re {
		if clip := u.u1 * vEff(f, ci); clip < re[ci] && (version != VersionPlanar || ci == len(re)-1) {
			re[ci] = clip
		}
	}
	return rs, re
}

// runPlan validates c against f, runs the plan's units concurrently, and
// stitches bytes [off, end) of the output into dst: the verbatim header and
// prepend, the units' bytes at consecutive positions from p.scanPos, then
// the verbatim trailer. Units are written in order as each completes; unit
// j+maxLiveSegments starts only once unit j's bytes are written, so at most
// maxLiveSegments row windows are held at once. It returns the bytes
// written.
func (cd *Codec) runPlan(ctx context.Context, dst io.Writer, f *jpeg.File, c *Container, p decodePlan, off, end int64) (int64, error) {
	total := f.TotalMCUs()
	if c.MCUEnd > uint32(total) || c.MCUStart > c.MCUEnd {
		return 0, badContainer("MCU range %d..%d of %d", c.MCUStart, c.MCUEnd, total)
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
		return 0, badContainer("%d blocks cannot fit in %d output bytes", blocks, c.OutputSize)
	}
	// Each live unit holds one (V+1)-row coefficient window per component —
	// that is what the §5.1 ceiling bounds. Tall over-"budget" images
	// stream through; only absurd widths are rejected.
	if wb := DecodeWindowBytes(f, len(p.units)); wb > MemDecodeBudget {
		return 0, &jpeg.Error{Reason: jpeg.ReasonMemDecode,
			Detail: fmt.Sprintf("decode row windows need %d bytes > %d budget", wb, MemDecodeBudget)}
	}
	if p.indexed {
		cd.stats.Add("range_segments_decoded", int64(len(p.units)))
		var rows int64
		for i := range p.units {
			rs, re := p.units[i].rows(f, c.Version)
			for ci := range re {
				rows += int64(re[ci] - rs[ci])
			}
		}
		cd.stats.Add("range_block_rows", rows)
	}

	// The units share one set of Huffman encoders, and each sizes its
	// output from the container's scan bytes.
	var tabs *jpeg.ScanTables
	if len(p.units) > 0 {
		var err error
		if tabs, err = jpeg.NewScanTables(f); err != nil {
			return 0, err
		}
	}
	scan := int64(c.OutputSize) - prefixLen(c)
	if c.EmitTail {
		scan -= int64(len(c.Trailer))
	}
	var arith int64
	for _, st := range c.Streams {
		arith += int64(len(st))
	}

	done := make([]chan segResult, len(p.units))
	l := newLauncher()
	started := 0
	// launch starts the next unit. It never waits: it runs only while
	// fewer than maxLiveSegments units hold a slot.
	launch := func() {
		if started == len(p.units) {
			return
		}
		j := started
		u := &p.units[j]
		done[j] = make(chan segResult, 1)
		l.start(nil, func() { done[j] <- cd.decodeUnit(ctx, f, c, tabs, u, u.outCap(c, scan, arith)) })
		started++
	}
	for range maxLiveSegments {
		launch()
	}

	out := &sliceWriter{dst: dst, off: off, end: end}
	var firstErr error
	if c.EmitHeader {
		_, firstErr = out.Write(c.JPEGHeader)
	}
	if firstErr == nil {
		_, firstErr = out.Write(c.Prepend)
	}
	out.pos = p.scanPos
	for j := 0; j < started; j++ {
		r := <-done[j]
		l.done()
		if firstErr != nil {
			continue // drain the units already started
		}
		if r.err != nil {
			firstErr = r.err
			continue
		}
		// A unit that stops before the container's last row must land
		// exactly on the next row's recorded offset, or the index lied.
		if u := &p.units[j]; u.want >= 0 && int64(len(r.bytes)) != u.want {
			firstErr = badContainer("seek index: rows %d..%d produced %d scan bytes, index says %d",
				u.u0, u.u1, len(r.bytes), u.want)
			continue
		}
		if _, firstErr = out.Write(r.bytes); firstErr == nil {
			launch()
		}
	}
	if firstErr != nil {
		return out.written, firstErr
	}
	if c.EmitTail {
		if _, err := out.Write(c.Trailer); err != nil {
			return out.written, err
		}
	}
	if err := ctx.Err(); err != nil {
		return out.written, err
	}
	if out.written != end-off {
		return out.written, badContainer("decode produced %d bytes, want %d", out.written, end-off)
	}
	return out.written, nil
}

// segResult is one decoded unit's regenerated scan bytes (or error).
type segResult struct {
	bytes []byte
	err   error
}

// outCap estimates the scan bytes u regenerates, so its re-encoder
// allocates its output once: the seek index's count when the plan has one,
// else the unit's share of the container's scan bytes — split between
// segments by arithmetic stream length, which tracks what a segment's rows
// cost in Huffman bits, and within a segment by MCU count — plus 1/16
// slack. It never exceeds 16 bytes per byte of the unit's stream, so
// neither a crafted output size nor a crafted index can buy an allocation
// the input does not back.
func (u *decodeUnit) outCap(c *Container, scan, arith int64) int {
	st := int64(len(c.Streams[u.seg]))
	est := u.want
	if est < 0 {
		if scan <= 0 || arith <= 0 || u.segEnd <= u.segStart {
			return 0
		}
		est = scan * st / arith * int64(u.encEnd-u.encStart) / int64(u.segEnd-u.segStart)
		est += est / 16
	}
	return int(min(est, 16*st+4096))
}

// decodeUnit runs one unit's fused pipeline: the arithmetic decode writes
// block rows into a ring window sized to the model's two-row context (plus
// the MCU row the scan re-encoder groups), and the OnRow hook hands every
// completed MCU row group in [u0, u1) straight to the streaming scan
// encoder, which recycles nothing coefficient-shaped — what it retains per
// unit is Huffman bits, roughly output-sized.
func (cd *Codec) decodeUnit(ctx context.Context, f *jpeg.File, c *Container, tabs *jpeg.ScanTables, u *decodeUnit, outCap int) segResult {
	rs, re := u.rows(f, c.Version)
	rings, release := cd.getWindow(f)
	defer release()
	planes := make([]model.ComponentPlane, len(rings))
	for ci := range planes {
		comp := &f.Components[ci]
		planes[ci] = model.ComponentPlane{BlocksWide: comp.BlocksWide,
			BlocksHigh: comp.BlocksHigh, Quant: &f.Quant[comp.TQ], Rows: rings[ci],
			TurnRows: turnRows(f, ci, c.Version)}
	}

	flags := model.Flags{
		EdgePrediction: c.ModelFlags&1 != 0,
		DCGradient:     c.ModelFlags&2 != 0,
	}
	codec := cd.getSegCodec(planes, rs, re, flags)
	defer cd.putSegCodec(codec)
	sbufs := cd.getStreamBufs()
	se := jpeg.NewStreamScanEncoder(tabs, c.PadBit, int(c.RSTCount), u.encStart, u.encEnd, u.seed, outCap, sbufs)
	// Recycle the queue storage on every path, including cancelled or
	// corrupt units — the bytes Finish returns alias the encoder's scan
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
		mr := row / v
		if mr < u.u0 || mr >= u.u1 {
			return nil // outside the unit's rows: decode, don't re-encode
		}
		group = group[:0]
		for r := row - v + 1; r <= row; r++ {
			group = append(group, rings[ci].peek(r))
		}
		return se.ConsumeGroup(ci, mr, group)
	}

	d := arith.NewDecoder(c.Streams[u.seg])
	if err := codec.DecodeSegmentCtx(d, ctx.Done()); err != nil {
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
	return segResult{bytes: se.Finish(c.Tail, u.encEnd == f.TotalMCUs())}
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
	s.WalkBlocks(func(ci int, diff int32, blk []int16) {
		out[model.ClassDC] += enc.dcBits(ci, diff)
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
	})
	return out
}
