// Package lepton is a from-scratch Go implementation of Lepton, the
// format-specific, fault-tolerant JPEG recompressor Dropbox deployed on its
// file-storage backend ("The Design, Implementation, and Deployment of a
// System to Transparently Compress Hundreds of Petabytes of Image Files for
// a File-Storage Service", NSDI 2017).
//
// Lepton losslessly compresses baseline JPEG files by about a quarter: it
// replaces the file's Huffman coding with an adaptive binary arithmetic
// coder driven by a large statistic-bin model over DCT coefficients, while
// guaranteeing bit-exact round trips. The format supports independent
// decompression of 4-MiB file chunks and multithreaded decoding via
// "Huffman handover words".
//
// Quick start:
//
//	res, err := lepton.Compress(jpegBytes, nil)
//	// store res.Compressed ...
//	orig, err := lepton.Decompress(res.Compressed)
//	// orig is byte-identical to jpegBytes
//
// Conversions stream row by row, as the deployed system did (§5.1): no
// whole coefficient plane is ever materialized, per-request coefficient
// memory is a sliding window of block rows per thread segment, and the
// memory budgets in Options are streaming ceilings rather than up-front
// size rejections — a 100-megapixel JPEG converts within the default
// 24 MiB decode budget.
//
// Services converting many files should hold a Codec, which pools the
// model tables, row buffers, and scratch that dominate per-call memory,
// as the deployed blockservers did:
//
//	codec := lepton.NewCodec()
//	for _, f := range files {
//		res, err := codec.CompressCtx(ctx, f, nil) // identical output, far fewer allocations
//		...
//	}
//
// Compress and Decompress are one-shot conveniences over one shared
// default codec.
//
// # Contexts
//
// Every Codec method takes a context, and the codec observes cancellation
// mid-conversion, at every block row of every thread segment, not just
// between requests. A server whose client disconnects, or whose deadline
// expires, stops burning CPU within one row checkpoint and gets ctx.Err()
// back (errors.Is context.Canceled / context.DeadlineExceeded). An aborted
// conversion recycles its pooled state exactly as a completed one does, so
// the codec remains safe to reuse and its output stays byte-identical:
//
//	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
//	defer cancel()
//	res, err := codec.CompressCtx(ctx, jpegBytes, nil)
//
// # Storage
//
// Store is the content-addressed chunk store with the paper's §5.7 safety
// mechanisms (round-trip admission, checksums, deflate fallback, safety
// net, shutoff switch); see NewStore. The blockserver network service in
// internal/server drives the same codec and store over a socket protocol
// and drains gracefully via its Shutdown(ctx).
//
// Files the codec cannot handle (progressive JPEG, CMYK without
// Options.AllowCMYK, corrupt data, ...) are rejected with a classified
// Reason; callers typically fall back to generic compression, as
// production did. Progressive containers are decode-only: those written
// while an opt-in still compressed progressive files decode byte-exactly,
// but nothing writes new ones. Payloads that are not Lepton
// containers at all are rejected by the decompress functions with an error
// wrapping ErrNotLepton.
package lepton

import (
	"context"
	"errors"
	"fmt"
	"io"

	"lepton/internal/chunk"
	"lepton/internal/core"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

// Reason classifies why an input was rejected, matching the paper's §6.2
// exit-code taxonomy.
type Reason = jpeg.Reason

// Rejection reasons.
const (
	ReasonNone        = jpeg.ReasonNone
	ReasonProgressive = jpeg.ReasonProgressive
	ReasonUnsupported = jpeg.ReasonUnsupported
	ReasonNotImage    = jpeg.ReasonNotImage
	ReasonCMYK        = jpeg.ReasonCMYK
	ReasonMemDecode   = jpeg.ReasonMemDecode
	ReasonMemEncode   = jpeg.ReasonMemEncode
	ReasonChromaSub   = jpeg.ReasonChromaSub
	ReasonACRange     = jpeg.ReasonACRange
	ReasonRoundtrip   = jpeg.ReasonRoundtrip
	ReasonTruncated   = jpeg.ReasonTruncated
)

// ReasonOf extracts the rejection reason from an error returned by this
// package, or ReasonUnsupported for untyped errors, or ReasonNone for nil.
func ReasonOf(err error) Reason { return jpeg.ReasonOf(err) }

// Options tunes compression. The zero value (or nil) is the deployed
// production configuration. No option admits a progressive JPEG: those
// are refused with ReasonProgressive, as production refused them (§6.2).
type Options struct {
	// Threads forces the number of thread segments (1..64); 0 selects by
	// file size: the paper's cutoffs (Figures 7-8) below 1.5 MB, one
	// segment per 128 KiB from there up. Other values are refused. At most
	// eight segments of one conversion run at once, whatever the count.
	Threads int
	// SingleModel is the "Lepton 1-way" configuration: one model adapted
	// across the whole image for maximum compression, single-threaded
	// decode.
	SingleModel bool
	// Verify decodes the output and compares it byte-for-byte against the
	// input before returning (production admission control, §5.7).
	Verify bool
	// CollectStats fills Result.ClassBits/OriginalClassBits (Figure 4).
	CollectStats bool
	// DisableEdgePrediction / DisableDCGradient turn off the two headline
	// predictors (§4.3 ablations).
	DisableEdgePrediction bool
	DisableDCGradient     bool
	// AllowCMYK enables four-component (CMYK) files, the paper's "extra
	// model for the 4th color channel", which production kept off (§6.2).
	AllowCMYK bool
}

func (o *Options) coreOptions() core.EncodeOptions {
	if o == nil {
		return core.EncodeOptions{}
	}
	flags := model.Flags{
		EdgePrediction: !o.DisableEdgePrediction,
		DCGradient:     !o.DisableDCGradient,
	}
	return core.EncodeOptions{
		Flags:           &flags,
		ForceSegments:   o.Threads,
		SingleModel:     o.SingleModel,
		VerifyRoundtrip: o.Verify,
		CollectStats:    o.CollectStats,
		AllowCMYK:       o.AllowCMYK,
	}
}

// Result holds compression output and accounting.
type Result struct {
	// Compressed is the Lepton container.
	Compressed []byte
	// Threads is the thread-segment count used.
	Threads int
	// ClassBits / OriginalClassBits break the compressed and original scan
	// down by coefficient class (7x7, 7x1/1x7, DC) when CollectStats was
	// set; see Figure 4.
	ClassBits         [model.NumClasses]float64
	OriginalClassBits [model.NumClasses]int64
	// HeaderOriginal is the verbatim JPEG header size in bytes.
	HeaderOriginal int
	// ContainerOverhead is the container size minus the arithmetic
	// streams: the zlib-compressed header plus format framing.
	ContainerOverhead int
}

// Codec is a reusable compression pipeline. It owns pools for the model
// statistic-bin tables, coefficient row buffers, and per-segment scratch
// that dominate a conversion's allocations, so a long-lived codec serving
// many files reuses that memory instead of re-allocating it per call — the
// shape of the paper's blockserver deployment, where per-request memory
// was the binding constraint (§6.2). Output is byte-identical whatever the
// codec served before. A Codec is safe for concurrent use.
type Codec struct {
	core *core.Codec
}

// NewCodec returns a reusable codec with empty pools.
func NewCodec() *Codec { return &Codec{core: core.NewCodec()} }

// defaultCodec backs Compress, Decompress, and stores opened without a
// codec, so even casual callers get steady-state pooling.
var defaultCodec = NewCodec()

// CompressCtx compresses one whole baseline JPEG file under a context.
// Cancellation is observed mid-conversion — every thread segment checks the
// context at each block row — so an abandoned request aborts within one
// checkpoint and returns ctx.Err(). The codec's pooled state is recycled as
// on success; subsequent conversions on the same codec produce byte-identical
// output. opts may be nil.
func (c *Codec) CompressCtx(ctx context.Context, data []byte, opts *Options) (*Result, error) {
	res, err := c.core.EncodeCtx(ctx, data, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return &Result{
		Compressed:        res.Compressed,
		Threads:           res.Segments,
		ClassBits:         res.ClassBits,
		OriginalClassBits: res.OriginalClassBits,
		HeaderOriginal:    res.HeaderOriginal,
		ContainerOverhead: res.HeaderCompressed,
	}, nil
}

// DecompressCtx reconstructs the exact original bytes of a compressed file
// or chunk. A payload without the Lepton magic is rejected with an error
// wrapping ErrNotLepton. Cancellation aborts the arithmetic decode at the
// next block-row checkpoint in every segment.
func (c *Codec) DecompressCtx(ctx context.Context, comp []byte) ([]byte, error) {
	if err := checkMagic(comp); err != nil {
		return nil, err
	}
	return c.core.DecodeCtx(ctx, comp)
}

// DecompressToCtx streams the reconstruction to w with low
// time-to-first-byte: output is written segment by segment as decoding
// completes (§3.4). A cancelled decode may already have streamed part of
// the reconstruction into w.
func (c *Codec) DecompressToCtx(ctx context.Context, w io.Writer, comp []byte) error {
	if err := checkMagic(comp); err != nil {
		return err
	}
	return c.core.DecodeToCtx(ctx, w, comp)
}

// DecompressRangeCtx reconstructs exactly the byte range [off, off+n) of
// the original file — clamped to the file size — without decoding the rest.
// Every gray or color baseline container this package writes carries a
// per-MCU-row seek index, so a small read out of a large file costs
// roughly one thread segment of arithmetic decoding: header and trailer bytes come
// from the stored verbatim copies, scan bytes from re-encoding only the
// MCU rows the range overlaps. Progressive and CMYK containers, and legacy
// containers without an index, are served by a full decode that discards
// the bytes outside the range — always correct, only slower (the causes
// are counted in RangeStats).
func (c *Codec) DecompressRangeCtx(ctx context.Context, comp []byte, off, n int64) ([]byte, error) {
	if err := checkMagic(comp); err != nil {
		return nil, err
	}
	return c.core.DecodeRangeCtx(ctx, comp, off, n)
}

// VerifyCtx round-trips data through compress and decompress and reports
// whether the reconstruction is exact. It is the admission check production
// ran before accepting any chunk into storage (§5.7).
func (c *Codec) VerifyCtx(ctx context.Context, data []byte, opts *Options) error {
	o := &Options{}
	if opts != nil {
		cp := *opts
		o = &cp
	}
	o.Verify = true
	_, err := c.CompressCtx(ctx, data, o)
	return err
}

// checkMagic rejects payloads that cannot be Lepton containers before any
// further parsing, so callers can branch on ErrNotLepton with errors.Is.
func checkMagic(comp []byte) error {
	if !core.IsLepton(comp) {
		return fmt.Errorf("%w (%d-byte payload)", ErrNotLepton, len(comp))
	}
	return nil
}

// Compress compresses one whole baseline JPEG file via the default codec.
// opts may be nil.
func Compress(data []byte, opts *Options) (*Result, error) {
	return defaultCodec.CompressCtx(context.Background(), data, opts)
}

// Decompress reconstructs the exact original bytes of a compressed file or
// chunk via the default codec. A payload without the Lepton magic is
// rejected with an error wrapping ErrNotLepton.
func Decompress(comp []byte) ([]byte, error) {
	return defaultCodec.DecompressCtx(context.Background(), comp)
}

// RangeLength returns how many bytes DecompressRangeCtx(ctx, comp, off, n)
// will produce — the clamp of [off, off+n) to the decompressed size —
// without decoding anything.
func RangeLength(comp []byte, off, n int64) (int64, error) {
	if err := checkMagic(comp); err != nil {
		return 0, err
	}
	return core.RangeLength(comp, off, n)
}

// RangeStats returns cumulative process-wide range-decode counters, summed
// over every codec in the process: requests served, indexed fast-path
// hits, fallbacks to full decode split by cause, and thread segments and
// block rows decoded by the fast path. A blockserver's StatsSnapshot carries the
// same counters for that node's conversions alone.
func RangeStats() map[string]int64 { return core.RangeStats() }

// IsCompressed reports whether data begins with the Lepton magic number
// (0xCF 0x84, A.1).
func IsCompressed(data []byte) bool { return core.IsLepton(data) }

// ChunkSize is the Dropbox block size: files are stored as independent
// chunks of at most this many bytes (§1).
const ChunkSize = chunk.DefaultChunkSize

// ChunkOptions tunes chunked compression.
type ChunkOptions struct {
	// ChunkSize in bytes; 0 means ChunkSize (4 MiB).
	ChunkSize int
	// Verify round-trips every chunk before returning.
	Verify bool
	// Threads forces the per-chunk segment count (1..64); 0 selects by
	// size, as Options.Threads does. Other values are refused.
	Threads int
	// BufferLimit bounds how much of a stream CompressChunksFromCtx holds
	// in memory; 0 means the deployed encode budget. Larger streams are
	// chunk-compressed incrementally in raw mode with O(ChunkSize) memory.
	BufferLimit int64
}

func (o *ChunkOptions) chunkOptions(c *core.Codec) chunk.Options {
	co := chunk.Options{Codec: c}
	if o != nil {
		co.ChunkSize = o.ChunkSize
		co.VerifyRoundtrip = o.Verify
		co.SegmentsPerChunk = o.Threads
		co.BufferLimit = o.BufferLimit
	}
	return co
}

// CompressChunksCtx splits data at fixed chunk boundaries and compresses
// each chunk independently. Any chunk — including chunks beginning
// mid-scan or mid-Huffman-symbol — can later be decompressed on its own
// with DecompressCtx. Inputs Lepton cannot handle come back as
// deflate-compressed raw chunks rather than an error. The context is
// checked between chunks and inside the file's one streamed encode.
func (c *Codec) CompressChunksCtx(ctx context.Context, data []byte, opts *ChunkOptions) ([][]byte, error) {
	return chunk.CompressCtx(ctx, data, opts.chunkOptions(c.core))
}

// CompressChunksFromCtx chunk-compresses the stream r incrementally,
// calling emit with each finished chunk in order, so a file need not be
// held in memory whole: streams within the buffer limit produce output
// identical to CompressChunksCtx, and larger streams deflate through in
// constant space. The context is checked before each chunk is read, compressed, and
// emitted.
func (c *Codec) CompressChunksFromCtx(ctx context.Context, r io.Reader, opts *ChunkOptions, emit func(chunk []byte) error) error {
	return chunk.CompressFromCtx(ctx, r, opts.chunkOptions(c.core), emit)
}

// ReassembleChunksCtx decompresses a chunk sequence and concatenates the
// results into the original file, checking the context per chunk.
func (c *Codec) ReassembleChunksCtx(ctx context.Context, chunks [][]byte) ([]byte, error) {
	for i, ch := range chunks {
		if err := checkMagic(ch); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
	}
	return chunk.ReassembleCtx(ctx, c.core, chunks)
}

// ErrNotLepton is returned (wrapped, errors.Is-able) by Decompress,
// DecompressCtx, DecompressToCtx, DecompressRangeCtx, ReassembleChunksCtx,
// and RangeLength when a payload lacks the Lepton magic (0xCF 0x84).
var ErrNotLepton = errors.New("lepton: not a Lepton container")
