package core

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"io"
	"slices"
	"sync"

	"lepton/internal/arith"
	"lepton/internal/jpeg"
	"lepton/internal/metrics"
	"lepton/internal/model"
)

// Codec is a reusable encode/decode pipeline. It owns sync.Pools for the
// dominant per-conversion allocations — model statistic-bin tables (~1 MiB
// per thread segment), streamed coefficient rows and decode ring slabs,
// per-segment arithmetic coders and rolling-cache scratch, and the zlib
// header compressors — so a long-lived codec serving many conversions
// reuses memory instead of re-allocating it on every call. That is the
// shape of the paper's deployment: blockservers run for months and
// per-request memory is the binding constraint (§6.2).
//
// A Codec is safe for concurrent use.
type Codec struct {
	segCodecs  sync.Pool // *model.Codec: bin tables + segment scratch
	encoders   sync.Pool // *arith.Encoder: arithmetic-coder output buffers
	rows       sync.Pool // *rowSlab: encode feed rows, one block row each
	slabs      sync.Pool // *rowSlab: decode ring windows, one unit's each
	streamBufs sync.Pool // *jpeg.StreamEncBuffers: decode-side scan bit queues
	zlibWs     sync.Pool // *zlib.Writer: container header compressor
	zlibRs     sync.Pool // io.ReadCloser (+zlib.Resetter): header decompressor
	bufs       sync.Pool // *bytes.Buffer: marshal/unmarshal scratch

	// stats receives the codec's range_* counters and window its
	// coeff_window_bytes gauge: bytes of streamed coefficient rows held by
	// in-flight conversions, the quantity the §5.1 decode ceiling bounds
	// (compressed-domain buffers, whose size follows the payload, are not
	// counted).
	stats  *metrics.Set
	window *metrics.Gauge
}

// rangeCounters split range decodes between the indexed fast path and the
// full-decode fallbacks, and count the thread segments and block rows (all
// components) the fast path decoded.
var rangeCounters = []string{"range_requests", "range_fast",
	"range_fallback_no_index", "range_fallback_unsupported", "range_segments_decoded",
	"range_block_rows"}

const coeffWindow = "coeff_window_bytes"

// process is the aggregate every codec's counters roll up into.
var process = metrics.New(nil)

// NewStatsSet returns a set for a component that owns codecs (a blockserver
// node): it reports the codec counters and the named ones from the start,
// and rolls up into the process-wide aggregate RangeStats reads. Codecs
// made by NewCodecIn count into it.
func NewStatsSet(counters ...string) *metrics.Set {
	s := metrics.New(process, slices.Concat(rangeCounters, counters)...)
	s.Gauge(coeffWindow)
	return s
}

// NewCodec returns an empty codec with a counter set of its own under the
// process-wide aggregate; pools fill as it is used.
func NewCodec() *Codec { return NewCodecIn(NewStatsSet()) }

// NewCodecIn returns an empty codec counting into stats, a set from
// NewStatsSet (or one under it) so the counts still reach RangeStats.
func NewCodecIn(stats *metrics.Set) *Codec {
	return &Codec{stats: stats, window: stats.Gauge(coeffWindow)}
}

// rowSlab is one pooled coefficient buffer: a block row in Codec.rows, a
// decode unit's ring window in Codec.slabs. The two shapes never share a
// pool: a row request would pin a whole slab, and a slab request that
// popped a row would drop it and allocate anyway.
type rowSlab struct{ buf []int16 }

// --- pool accessors -------------------------------------------------------

func (c *Codec) getSegCodec(comps []model.ComponentPlane, rs, re []int, flags model.Flags) *model.Codec {
	if v := c.segCodecs.Get(); v != nil {
		mc := v.(*model.Codec)
		mc.Reset(comps, rs, re, flags)
		return mc
	}
	return model.NewCodec(comps, rs, re, flags)
}

func (c *Codec) putSegCodec(mc *model.Codec) {
	if mc == nil {
		return
	}
	mc.Release()
	c.segCodecs.Put(mc)
}

func (c *Codec) getEncoder() *arith.Encoder {
	if v := c.encoders.Get(); v != nil {
		e := v.(*arith.Encoder)
		e.Reset()
		return e
	}
	return arith.NewEncoder()
}

func (c *Codec) putEncoder(e *arith.Encoder) {
	if e != nil {
		c.encoders.Put(e)
	}
}

// getCoeffs returns an uncleared buffer of n coefficients from p (callers
// zero it as needed).
func getCoeffs(p *sync.Pool, n int) []int16 {
	if v := p.Get(); v != nil {
		slab := v.(*rowSlab)
		if cap(slab.buf) >= n {
			return slab.buf[:n]
		}
	}
	return make([]int16, n)
}

func putCoeffs(p *sync.Pool, buf []int16) {
	if buf != nil {
		p.Put(&rowSlab{buf: buf})
	}
}

// getRowBuf and putRowBuf pool the encode's one-row feed buffers.
func (c *Codec) getRowBuf(n int) []int16 { return getCoeffs(&c.rows, n) }
func (c *Codec) putRowBuf(buf []int16)   { putCoeffs(&c.rows, buf) }

// getSlab and putSlab pool the decode units' ring windows.
func (c *Codec) getSlab(n int) []int16 { return getCoeffs(&c.slabs, n) }
func (c *Codec) putSlab(buf []int16)   { putCoeffs(&c.slabs, buf) }

// getStreamBufs returns pooled bit-queue storage for a segment's streaming
// scan re-encoder.
func (c *Codec) getStreamBufs() *jpeg.StreamEncBuffers {
	if v := c.streamBufs.Get(); v != nil {
		return v.(*jpeg.StreamEncBuffers)
	}
	return &jpeg.StreamEncBuffers{}
}

func (c *Codec) putStreamBufs(sb *jpeg.StreamEncBuffers) {
	if sb != nil {
		c.streamBufs.Put(sb)
	}
}

func (c *Codec) getBuf() *bytes.Buffer {
	if v := c.bufs.Get(); v != nil {
		b := v.(*bytes.Buffer)
		b.Reset()
		return b
	}
	return &bytes.Buffer{}
}

func (c *Codec) putBuf(b *bytes.Buffer) {
	if b != nil {
		c.bufs.Put(b)
	}
}

func (c *Codec) getZlibW(w io.Writer) *zlib.Writer {
	if v := c.zlibWs.Get(); v != nil {
		zw := v.(*zlib.Writer)
		zw.Reset(w)
		return zw
	}
	return zlib.NewWriter(w)
}

func (c *Codec) putZlibW(zw *zlib.Writer) {
	if zw != nil {
		c.zlibWs.Put(zw)
	}
}

func (c *Codec) getZlibR(r io.Reader) (io.ReadCloser, error) {
	if v := c.zlibRs.Get(); v != nil {
		zr := v.(io.ReadCloser)
		if err := zr.(zlib.Resetter).Reset(r, nil); err != nil {
			// Reset consumed (part of) the stream header; the error IS
			// the header error. Falling through to a fresh reader here
			// would parse from a shifted offset and make the outcome
			// depend on pool state.
			return nil, err
		}
		return zr, nil
	}
	return zlib.NewReader(r)
}

func (c *Codec) putZlibR(zr io.ReadCloser) {
	if zr == nil {
		return
	}
	// Detach the reader from its source before pooling: otherwise each
	// pooled reader pins the caller's input buffer (up to a whole request
	// payload) until its next reuse. The Reset error (EOF on an empty
	// source) is expected and discarded.
	_ = zr.(zlib.Resetter).Reset(bytes.NewReader(nil), nil)
	c.zlibRs.Put(zr)
}

// MarshalContainer serializes cont, drawing marshal scratch and the zlib
// header compressor from the codec's pools. The stream buffers a
// ScanEncode's Release recycles must not be recycled until this returns;
// callers therefore marshal first and release after.
func (c *Codec) MarshalContainer(cont *Container) ([]byte, error) {
	return cont.marshal(c)
}

// ContainerOutputSize reads the exact reconstructed size recorded in a
// container's fixed header, without unmarshaling the container. Servers use
// it to frame a response before streaming the decode.
func ContainerOutputSize(comp []byte) (uint32, error) {
	if len(comp) < 28 {
		return 0, badContainer("too short: %d bytes", len(comp))
	}
	if comp[0] != Magic0 || comp[1] != Magic1 {
		return 0, badContainer("bad magic %#02x %#02x", comp[0], comp[1])
	}
	return binary.LittleEndian.Uint32(comp[20:]), nil
}
