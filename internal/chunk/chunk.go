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
package chunk

import (
	"bytes"
	"context"
	"fmt"
	"io"

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
	// Flags selects model predictors; nil means the deployed configuration.
	Flags *model.Flags
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
	// files over the memory budget (§6.2).
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
// Cancellation is observed between chunks and, through the core encoder's
// per-row checkpoints, inside each chunk's segment encode.
func CompressCtx(ctx context.Context, data []byte, opt Options) ([][]byte, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	size := opt.ChunkSize
	if size <= 0 {
		size = DefaultChunkSize
	}
	nChunks := (len(data) + size - 1) / size
	if nChunks == 0 {
		nChunks = 1
	}
	out := make([][]byte, 0, nChunks)
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
// on the same bytes); a larger stream — which could never pass the
// encoder's memory admission check anyway — is deflated chunk by chunk
// without ever holding the whole input, so files larger than memory stream
// through in constant space. Cancellation is checked before each chunk is
// read, compressed, and emitted.
func CompressFromCtx(ctx context.Context, r io.Reader, opt Options, emit func(chunk []byte) error) error {
	if err := opt.check(); err != nil {
		return err
	}
	size := opt.ChunkSize
	if size <= 0 {
		size = DefaultChunkSize
	}
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
// CompressFromCtx, emitting chunks in order as they are produced.
func compressAll(ctx context.Context, data []byte, opt Options, emit func(chunk []byte) error) error {
	size := opt.ChunkSize
	if size <= 0 {
		size = DefaultChunkSize
	}
	nChunks := (len(data) + size - 1) / size
	if nChunks == 0 {
		nChunks = 1
	}
	codec := opt.Codec

	f, err := jpeg.Parse(data, core.DefaultMemEncodeBudget)
	var s *jpeg.Scan
	if err == nil {
		// Every stored chunk must be decodable within the streaming decode
		// ceiling: whatever a chunk's segment count, a decode holds the
		// row windows of at most eight live segments, which is what
		// DecodeWindowBytes counts for MaxSegments. The chunk *encoder*,
		// unlike the whole-file path, still materializes the scan's
		// coefficient planes (chunk boundaries need every row-start
		// position), so its plane bytes must additionally fit the encode
		// budget — Parse no longer bounds whole planes, only row windows.
		switch {
		case core.DecodeWindowBytes(f, core.MaxSegments) > core.DefaultMemDecodeBudget:
			err = fmt.Errorf("over decode budget")
		case int64(f.CoefficientCount())*2 > core.DefaultMemEncodeBudget:
			err = fmt.Errorf("over encode budget")
		default:
			s, err = jpeg.DecodeScan(f)
		}
	}
	if err != nil {
		// Not a (supported) JPEG: raw chunks.
		return emitRawChunks(data, size, codec, emit)
	}

	flags := model.DefaultFlags()
	if opt.Flags != nil {
		flags = *opt.Flags
	}

	scanStart := int64(len(f.Header))
	scanEnd := scanStart + int64(len(f.ScanData))
	total := f.TotalMCUs()
	// absPos(m) = absolute file offset of MCU m's first bit's byte.
	absPos := func(m int) int64 {
		if m >= total {
			return scanEnd
		}
		return scanStart + s.Positions[m].ByteOff
	}
	// rowStartMCU(k) = first row-aligned MCU whose position is >= offset.
	rowStartAtOrAfter := func(off int64) int {
		lo, hi := 0, f.MCUsHigh
		for lo < hi {
			mid := (lo + hi) / 2
			if absPos(mid*f.MCUsWide) >= off {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo * f.MCUsWide
	}

	for k := 0; k < nChunks; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		o0 := int64(k) * int64(size)
		o1 := o0 + int64(size)
		if o1 > int64(len(data)) {
			o1 = int64(len(data))
		}
		chunkBytes, err := compressOne(ctx, data, f, s, flags, opt, k, o0, o1,
			scanStart, scanEnd, total, absPos, rowStartAtOrAfter)
		if err != nil {
			return err
		}
		if opt.VerifyRoundtrip {
			if err := codec.VerifyCtx(ctx, chunkBytes, data[o0:o1], 0); err != nil {
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

func compressOne(ctx context.Context, data []byte, f *jpeg.File, s *jpeg.Scan, flags model.Flags,
	opt Options, k int, o0, o1, scanStart, scanEnd int64, total int,
	absPos func(int) int64, rowStartAtOrAfter func(int64) int) ([]byte, error) {

	// Chunks entirely outside the scan hold verbatim data.
	if o1 <= scanStart || o0 >= scanEnd {
		return rawContainer(data[o0:o1], opt.Codec)
	}
	mStart := rowStartAtOrAfter(o0)
	mEnd := rowStartAtOrAfter(o1)
	if mEnd > total {
		mEnd = total
	}
	if o1 >= scanEnd {
		mEnd = total
	}
	if mStart >= mEnd {
		// No MCU row starts inside this chunk; store it verbatim.
		return rawContainer(data[o0:o1], opt.Codec)
	}

	prependFrom := o0
	if k == 0 {
		prependFrom = scanStart // the header is emitted structurally
	}
	prependTo := absPos(mStart)
	if prependTo > o1 {
		prependTo = o1
	}

	c := &core.Container{
		Mode:       core.ModeLepton,
		OutputSize: uint32(o1 - o0),
		JPEGHeader: f.Header,
		PadBit:     s.PadBit,
		EmitHeader: k == 0,
		RSTCount:   uint32(s.RSTCount),
		MCUStart:   uint32(mStart),
		MCUEnd:     uint32(mEnd),
		ModelFlags: flagsByteOf(flags),
		Prepend:    data[prependFrom:prependTo],
	}
	if mEnd == total {
		// This chunk reaches the end of the scan: it owns the tail garbage
		// and whatever part of the trailer falls inside it (the output-size
		// clip cuts the rest; later chunks carry the remainder verbatim).
		c.EmitTail = true
		c.Tail = s.Tail
		trailerWant := o1 - scanEnd
		if trailerWant < 0 {
			trailerWant = 0
		}
		if trailerWant > int64(len(f.Trailer)) {
			trailerWant = int64(len(f.Trailer))
		}
		c.Trailer = f.Trailer[:trailerWant]
	}

	nSeg := opt.SegmentsPerChunk
	if nSeg == 0 {
		nSeg = core.SegmentCountFor(int(o1 - o0))
	}
	segs, streams, _, release, err := opt.Codec.EncodeSegmentsCtx(ctx, f, s, mStart, mEnd, nSeg, flags, false)
	if err != nil {
		release()
		return nil, err
	}
	c.Segments = segs
	c.Streams = streams
	if !opt.DisableSeekIndex && core.SeekIndexable(f) {
		// The chunk covers MCU rows [mStart/W, ceil(mEnd/W)); the scan
		// decode above recorded a position at every MCU, so the row table
		// is a stride over it. With it, a range read inside this chunk
		// decodes only the overlapping thread segments instead of the
		// whole chunk.
		w := f.MCUsWide
		r0, rEnd := mStart/w, (mEnd+w-1)/w
		idx := make([]jpeg.MCUPos, rEnd-r0)
		for i := range idx {
			idx[i] = s.Positions[(r0+i)*w]
		}
		c.SeekIndex = idx
	}
	b, err := opt.Codec.MarshalContainer(c)
	release()
	return b, err
}

func flagsByteOf(flags model.Flags) uint8 {
	var v uint8
	if flags.EdgePrediction {
		v |= 1
	}
	if flags.DCGradient {
		v |= 2
	}
	return v
}

func emitRawChunks(data []byte, size int, codec *core.Codec, emit func([]byte) error) error {
	n := (len(data) + size - 1) / size
	if n == 0 {
		n = 1
	}
	for k := 0; k < n; k++ {
		o0 := k * size
		o1 := o0 + size
		if o1 > len(data) {
			o1 = len(data)
		}
		b, err := rawContainer(data[o0:o1], codec)
		if err != nil {
			// Marshal of a raw container cannot fail; defensive only.
			panic(err)
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

func rawContainer(payload []byte, codec *core.Codec) ([]byte, error) {
	c := &core.Container{Mode: core.ModeRaw, Raw: payload, OutputSize: uint32(len(payload))}
	return codec.MarshalContainer(c)
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
