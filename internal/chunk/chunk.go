// Package chunk implements the 4-MiB chunk layer: the Dropbox back-end
// stores files in independent chunks spread across servers, and Lepton must
// be able to decompress any chunk of a JPEG without access to the others
// (paper §1, §3.4).
//
// Chunk boundaries fall at arbitrary byte offsets — mid-Huffman-symbol, mid
// restart marker, even mid-header. Each chunk's container therefore carries:
//
//   - the full JPEG header (for the entropy tables), never emitted except by
//     chunk 0 — the paper's "original Huffman probability model at the start
//     of each chunk";
//   - a Huffman handover word for the first MCU the chunk owns;
//   - verbatim "prepend" bytes covering the gap between the chunk's start
//     offset and the first bit of its first owned MCU (the previous chunk's
//     spill-over);
//   - an exact output size, clipping the final MCU's spill into the next
//     chunk (which stores those bytes in its own prepend).
//
// Ownership is rounded to MCU-row boundaries, which keeps the model's
// row-based thread segmentation intact at the cost of a slightly longer
// verbatim prepend.
//
// A file's chunks come from one streamed encode of its whole scan, the
// same pipeline whole-file compression runs (§5.1: row by row under a
// fixed memory ceiling), with its thread segments cut at the chunks' MCU
// rows; no whole coefficient plane is built on a put.
package chunk

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"lepton/internal/core"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

// DefaultChunkSize is the Dropbox block size.
const DefaultChunkSize = 4 << 20

// Options configures chunked compression.
type Options struct {
	// ChunkSize in bytes; 0 means DefaultChunkSize.
	ChunkSize int
	// SegmentsPerChunk forces the thread-segment count per chunk
	// (1..core.MaxSegments; 0 = by chunk payload size, as in
	// core.SegmentCountFor). Other values are refused before any work. At
	// most eight of a chunk's segments run at once, whatever the count.
	SegmentsPerChunk int
	// VerifyRoundtrip decodes every chunk and compares it byte for byte
	// with its input slice before returning, failing with ReasonRoundtrip
	// on the first chunk that differs (production admission, §5.7). Callers
	// that verify at admission themselves leave it off, so each chunk is
	// verified once: store.Store.PutFileCtx verifies in its admission loop and
	// does not set it; store.Remote.PutFile, which has no admission loop of
	// its own, does.
	VerifyRoundtrip bool
	// Codec supplies pooled encode/decode state shared with other
	// conversions. It is required.
	Codec *core.Codec
	// BufferLimit bounds how much of a stream CompressFromCtx holds in memory
	// while deciding whether the input is a compressible JPEG; 0 means the
	// deployed encode budget (core.DefaultMemEncodeBudget). Streams larger
	// than the limit are chunk-compressed incrementally in raw (deflate)
	// mode with O(ChunkSize) memory — the same treatment production gave
	// files over the memory budget (§6.2). JPEGs within the limit are
	// encoded with the deployed model flags; this layer has no ablations.
	BufferLimit int64
	// DisableSeekIndex omits the per-MCU-row seek index from each chunk
	// container, which is otherwise byte-identical to the indexed one.
	// Range reads of index-less chunks fall back to decoding the whole
	// chunk.
	DisableSeekIndex bool
}

// check refuses a forced segment count the decoder would refuse.
func (o Options) check() error {
	if o.SegmentsPerChunk < 0 || o.SegmentsPerChunk > core.MaxSegments {
		return fmt.Errorf("chunk: SegmentsPerChunk %d outside 0..%d", o.SegmentsPerChunk, core.MaxSegments)
	}
	return nil
}

// CompressCtx splits data into chunks and compresses each one
// independently. If the data is not a JPEG that Lepton supports, every chunk
// is stored in raw (deflate) mode — the caller can inspect Mode to know which
// path was taken. The error return reports only internal failures and
// cancellation; unsupported inputs are not errors at this layer.
// Cancellation is observed between chunks and, per MCU row, inside the
// row-position pass and the file's one streamed encode.
func CompressCtx(ctx context.Context, data []byte, opt Options) ([][]byte, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	var out [][]byte
	err := compressAll(ctx, data, opt, func(chunk []byte) error {
		out = append(out, chunk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CompressFromCtx chunk-compresses the stream r incrementally, calling emit
// with each finished chunk in order. It buffers at most
// Options.BufferLimit bytes: a stream that fits is treated exactly like
// CompressCtx (JPEGs get the full Lepton treatment, with output identical
// on the same bytes); a larger stream is deflated chunk by chunk without
// ever holding the whole input, so files larger than memory stream through
// in constant space. Cancellation is checked before each chunk is
// read, compressed, and emitted.
func CompressFromCtx(ctx context.Context, r io.Reader, opt Options, emit func(chunk []byte) error) error {
	if err := opt.check(); err != nil {
		return err
	}
	size := chunkSize(opt)
	limit := opt.BufferLimit
	if limit <= 0 {
		limit = core.DefaultMemEncodeBudget
	}
	// The buffering phase can read up to the whole encode budget from a
	// slow source, so it must observe cancellation too — per read, via the
	// wrapping reader (a read already blocked in r is not interruptible;
	// that is io.Reader's contract, not ours).
	cr := &ctxReader{ctx: ctx, r: r}
	// Read one byte past the limit so "exactly at the limit" still takes
	// the whole-file path.
	buf, err := io.ReadAll(io.LimitReader(cr, limit+1))
	if err != nil {
		return err
	}
	if int64(len(buf)) <= limit {
		return compressAll(ctx, buf, opt, emit)
	}
	// Over budget: raw-chunk the buffered prefix and the rest of the
	// stream without further buffering.
	src := io.MultiReader(bytes.NewReader(buf), cr)
	chunkBuf := make([]byte, size)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := io.ReadFull(src, chunkBuf)
		if n > 0 {
			c, merr := rawContainer(chunkBuf[:n], opt.Codec)
			if merr != nil {
				return merr
			}
			if err := emit(c); err != nil {
				return err
			}
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ctxReader fails reads with the context's error once it is cancelled.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr *ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.r.Read(p)
}

// compressAll is the shared whole-input path behind CompressCtx and
// CompressFromCtx, emitting chunks in order. A JPEG takes one streamed
// encode of its whole scan (core.Codec.EncodeScanCtx, the path whole-file
// compression takes too), cut into thread segments so that no segment
// crosses a chunk's MCU rows; each chunk's container then takes its slice
// of the segments and streams. Only the rows that encode's run-ahead rule
// lets it queue are held, never whole coefficient planes, so a put's
// memory is bounded the way a whole-file compress's is, whatever the
// image's height.
func compressAll(ctx context.Context, data []byte, opt Options, emit func(chunk []byte) error) error {
	size := chunkSize(opt)
	codec := opt.Codec
	f, err := jpeg.Parse(data, core.DefaultMemEncodeBudget)
	// Every stored chunk must be decodable within the streaming decode
	// ceiling: whatever a chunk's segment count, a decode holds the row
	// windows of at most eight live segments, which is what
	// DecodeWindowBytes counts for MaxSegments.
	if err == nil && core.DecodeWindowBytes(f, core.MaxSegments) > core.DefaultMemDecodeBudget {
		err = fmt.Errorf("over decode budget")
	}
	var spans []span
	var starts []int
	if err == nil {
		spans, starts, err = planChunks(ctx, f, len(data), size, opt.SegmentsPerChunk)
	}
	var enc *core.ScanEncode
	if err == nil {
		enc, err = codec.EncodeScanCtx(ctx, f, starts, model.DefaultFlags(), core.DefaultMemEncodeBudget, false)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// Not a (supported) JPEG, or a corrupt scan: raw chunks.
		for _, c := range RawChunks(data, size, codec) {
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	}
	defer enc.Release()

	for k, sp := range spans {
		if err := ctx.Err(); err != nil {
			return err
		}
		var chunkBytes []byte
		if sp.mStart == sp.mEnd {
			chunkBytes, err = rawContainer(data[sp.o0:sp.o1], codec)
		} else {
			chunkBytes, err = codec.MarshalContainer(leptonContainer(data, f, enc, sp, k, opt.DisableSeekIndex))
		}
		if err != nil {
			return err
		}
		if opt.VerifyRoundtrip {
			if err := codec.VerifyCtx(ctx, chunkBytes, data[sp.o0:sp.o1], 0); err != nil {
				if jerr, ok := err.(*jpeg.Error); ok {
					jerr.Detail = fmt.Sprintf("chunk %d: %s", k, jerr.Detail)
				}
				return err
			}
		}
		if err := emit(chunkBytes); err != nil {
			return err
		}
	}
	return nil
}

// span is one chunk's plan: its input bytes [o0, o1), the MCUs it owns
// [mStart, mEnd) (none: it is stored raw), and its thread segments
// [seg0, seg1) within the file's one encode.
type span struct {
	o0, o1       int64
	mStart, mEnd int
	seg0, seg1   int
	// prependTo is the file offset of its first owned MCU's byte.
	prependTo int64
}

// planChunks assigns every chunk of an n-byte file its MCU rows and thread
// segments before any segment is encoded. Chunk ownership is rounded to MCU-row starts:
// a chunk owns the rows that start at or after its first byte and before
// its end, and a chunk in which no row starts is stored raw. The row byte
// positions this needs come from one scan pass that keeps no coefficients,
// taken only when a chunk boundary falls inside the scan. The returned
// starts are every chunk's segment starts, concatenated.
func planChunks(ctx context.Context, f *jpeg.File, n, size, segsPerChunk int) ([]span, []int, error) {
	scanStart := int64(len(f.Header))
	scanEnd := scanStart + int64(len(f.ScanData))
	total, w := f.TotalMCUs(), f.MCUsWide
	var rowPos []jpeg.MCUPos
	if firstInside := (scanStart/int64(size) + 1) * int64(size); firstInside < scanEnd {
		var err error
		if rowPos, err = scanRowPositions(ctx, f); err != nil {
			return nil, nil, err
		}
	}
	// absRow(r) is the file offset of MCU row r's first byte.
	absRow := func(r int) int64 { return scanStart + rowPos[r].ByteOff }
	// rowStartAtOrAfter returns the first row-aligned MCU that starts at
	// or after off (total if none). Offsets outside the scan need no
	// positions: row 0 starts at the scan's first byte, and every row
	// starts before its end.
	rowStartAtOrAfter := func(off int64) int {
		switch {
		case off <= scanStart:
			return 0
		case off >= scanEnd:
			return total
		}
		return sort.Search(f.MCUsHigh, func(r int) bool { return absRow(r) >= off }) * w
	}

	spans := make([]span, max(1, (n+size-1)/size))
	var starts []int
	for k := range spans {
		sp := &spans[k]
		sp.o0 = int64(k) * int64(size)
		sp.o1 = min(sp.o0+int64(size), int64(n))
		// Chunks entirely outside the scan hold verbatim data.
		if sp.o1 <= scanStart || sp.o0 >= scanEnd {
			continue
		}
		mStart, mEnd := rowStartAtOrAfter(sp.o0), rowStartAtOrAfter(sp.o1)
		if sp.o1 >= scanEnd {
			mEnd = total
		}
		if mStart >= mEnd {
			// No MCU row starts inside this chunk; store it verbatim.
			continue
		}
		nSeg := segsPerChunk
		if nSeg == 0 {
			nSeg = core.SegmentCountFor(int(sp.o1 - sp.o0))
		}
		sp.mStart, sp.mEnd, sp.seg0 = mStart, mEnd, len(starts)
		starts = append(starts, core.SegmentStarts(f, nSeg, mStart/w, mEnd/w)...)
		sp.seg1 = len(starts)
		sp.prependTo = scanStart
		if mStart > 0 {
			sp.prependTo = min(absRow(mStart/w), sp.o1)
		}
	}
	return spans, starts, nil
}

// leptonContainer builds chunk k's container from its slice of the file's
// encode.
func leptonContainer(data []byte, f *jpeg.File, enc *core.ScanEncode, sp span, k int, noIndex bool) *core.Container {
	prependFrom := sp.o0
	if k == 0 {
		prependFrom = int64(len(f.Header)) // the header is emitted structurally
	}
	c := &core.Container{
		Mode:       core.ModeLepton,
		OutputSize: uint32(sp.o1 - sp.o0),
		JPEGHeader: f.Header,
		PadBit:     enc.Scan.PadBit,
		EmitHeader: k == 0,
		RSTCount:   uint32(enc.Scan.RSTCount),
		MCUStart:   uint32(sp.mStart),
		MCUEnd:     uint32(sp.mEnd),
		ModelFlags: enc.ModelFlags,
		Prepend:    data[prependFrom:sp.prependTo],
		Segments:   enc.Segments[sp.seg0:sp.seg1],
		Streams:    enc.Streams[sp.seg0:sp.seg1],
	}
	if sp.mEnd == f.TotalMCUs() {
		// This chunk reaches the end of the scan: it owns the tail garbage
		// and whatever part of the trailer falls inside it (the output-size
		// clip cuts the rest; later chunks carry the remainder verbatim).
		c.EmitTail = true
		c.Tail = enc.Scan.Tail
		scanEnd := int64(len(f.Header) + len(f.ScanData))
		c.Trailer = f.Trailer[:min(max(sp.o1-scanEnd, 0), int64(len(f.Trailer)))]
	}
	if !noIndex && core.SeekIndexable(f) {
		// The chunk covers MCU rows [mStart/W, mEnd/W); its seek index is
		// that slice of the encode's row table. With it, a range read
		// inside this chunk decodes only the overlapping thread segments
		// instead of the whole chunk.
		c.SeekIndex = enc.RowPos[sp.mStart/f.MCUsWide : sp.mEnd/f.MCUsWide]
	}
	return c
}

// positionSink is a jpeg.RowSink that keeps no coefficients: every block
// row of a component is decoded into the same scratch buffer, which nothing
// reads (the scan decoder only writes coefficients, so the buffer need not
// be zeroed either). EmitRow stops the pass once ctx is done.
type positionSink struct {
	ctx  context.Context
	bufs [][]int16
}

func (s *positionSink) GetRowBuf(ci int) []int16 { return s.bufs[ci] }

func (s *positionSink) EmitRow(ci, row int, coeff []int16) error { return s.ctx.Err() }

// scanRowPositions returns the handover state at every MCU-row start of
// f's scan, decoding it once with one row of scratch per component.
func scanRowPositions(ctx context.Context, f *jpeg.File) ([]jpeg.MCUPos, error) {
	sink := &positionSink{ctx: ctx}
	for _, c := range f.Components {
		sink.bufs = append(sink.bufs, make([]int16, c.BlocksWide*64))
	}
	posAt := make([]int, f.MCUsHigh)
	for r := range posAt {
		posAt[r] = r * f.MCUsWide
	}
	pos := make([]jpeg.MCUPos, len(posAt))
	if _, err := jpeg.DecodeScanStream(f, sink, posAt, pos); err != nil {
		return nil, err
	}
	return pos, nil
}

// RawChunks stores data as raw (deflate) chunks of size bytes (0 means
// DefaultChunkSize): the path for inputs Lepton does not compress, and the
// fallback of callers whose Lepton chunks fail admission.
func RawChunks(data []byte, size int, codec *core.Codec) [][]byte {
	if size <= 0 {
		size = DefaultChunkSize
	}
	out := make([][]byte, max(1, (len(data)+size-1)/size))
	for k := range out {
		o0 := k * size
		b, err := rawContainer(data[o0:min(o0+size, len(data))], codec)
		if err != nil {
			panic("chunk: raw container marshal cannot fail: " + err.Error())
		}
		out[k] = b
	}
	return out
}

func rawContainer(payload []byte, codec *core.Codec) ([]byte, error) {
	c := &core.Container{Mode: core.ModeRaw, Raw: payload, OutputSize: uint32(len(payload))}
	return codec.MarshalContainer(c)
}

// chunkSize resolves Options.ChunkSize.
func chunkSize(opt Options) int {
	if opt.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return opt.ChunkSize
}

// ReassembleCtx decompresses all chunks and concatenates them. Chunks are
// fully independent: no other chunk's data is needed to decode one. The
// context is checked per chunk and inside each chunk's segment decode.
func ReassembleCtx(ctx context.Context, codec *core.Codec, chunks [][]byte) ([]byte, error) {
	var out []byte
	for i, ch := range chunks {
		b, err := codec.DecodeCtx(ctx, ch, 0)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		out = append(out, b...)
	}
	return out, nil
}
