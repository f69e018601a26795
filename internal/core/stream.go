package core

import (
	"context"
	"sync"

	"lepton/internal/jpeg"
	"lepton/internal/metrics"
)

// This file holds the row-window streaming machinery shared by the decode
// and encode pipelines (paper §3.4, §5.1): sliding windows of coefficient
// block rows, the producer/consumer feed that lets the sequential Huffman
// scan decode overlap the parallel segment encoders, the memory gate that
// turns MemEncodeBudget into a streaming ceiling, and the coefficient-
// memory accounting that makes the window bound observable in production
// and testable in CI.

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
// of f holds with nSeg thread segments: one (V+1)-row ring per component
// per segment. This — not the whole coefficient planes — is what
// MemDecodeBudget bounds; it grows with image *width* and segment count,
// never with image height.
func DecodeWindowBytes(f *jpeg.File, nSeg int) int64 {
	if nSeg < 1 {
		nSeg = 1
	}
	var per int64
	for ci := range f.Components {
		per += int64(windowRowsFor(vEff(f, ci))) * rowBytes(f, ci)
	}
	return per * int64(nSeg)
}

// encodeMinGateBytes returns the smallest retained-row ceiling at which the
// streamed encode cannot deadlock: the segment arithmetic coders consume
// components in planar order while the scan decode produces rows in MCU
// order, so a segment must be able to hold every row of its later
// components plus the first component's window, plus one MCU row group in
// flight at the producer.
func encodeMinGateBytes(f *jpeg.File, starts []int, endMCU int) int64 {
	var maxSeg int64
	for i, start := range starts {
		end := endMCU
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		rs, re := rowRangesFor(f, start, end)
		var n int64
		for ci := range f.Components {
			if ci == 0 {
				n += int64(windowRowsFor(vEff(f, ci))) * rowBytes(f, ci)
			} else {
				n += int64(re[ci]-rs[ci]) * rowBytes(f, ci)
			}
		}
		if n > maxSeg {
			maxSeg = n
		}
	}
	var group int64
	for ci := range f.Components {
		group += int64(vEff(f, ci)) * rowBytes(f, ci)
	}
	return maxSeg + group
}

// --- decode-side ring window ----------------------------------------------

// ringRows is the decode-side model.RowWindow: a fixed ring of the last
// windowRowsFor(v) block rows of one component. The model decodes into the
// row returned by Row; rows older than the ring capacity are recycled (and
// re-zeroed) in place, after OnRow has handed them to the scan re-encoder.
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

// --- encode-side memory gate and feeds ------------------------------------

// memGate bounds the coefficient bytes the scan-decode producer may keep
// in flight (delivered to segment feeds but not yet consumed and
// recycled). It mirrors its balance into the codec's coefficient-window
// gauge and settles any remainder at close, so error paths cannot leak the
// gauge.
type memGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	inUse   int64
	limit   int64
	aborted bool
	window  *metrics.Gauge
}

func newMemGate(limit int64, window *metrics.Gauge) *memGate {
	g := &memGate{limit: limit, window: window}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until n bytes fit under the ceiling (or the gate is
// aborted, returning false). The first acquisition of a conversion always
// succeeds: the ceiling is pre-raised to encodeMinGateBytes.
func (g *memGate) acquire(n int64) bool {
	g.mu.Lock()
	for !g.aborted && g.inUse+n > g.limit {
		g.cond.Wait()
	}
	ok := !g.aborted
	if ok {
		g.inUse += n
	}
	g.mu.Unlock()
	if ok {
		g.window.Add(n)
	}
	return ok
}

func (g *memGate) release(n int64) {
	g.mu.Lock()
	g.inUse -= n
	g.mu.Unlock()
	g.window.Add(-n)
	g.cond.Broadcast()
}

func (g *memGate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// close settles the gate's remaining balance against the gauge.
func (g *memGate) close() {
	g.mu.Lock()
	rest := g.inUse
	g.inUse = 0
	g.mu.Unlock()
	if rest != 0 {
		g.window.Add(-rest)
	}
}

// rowRecycler is a per-component free list of row buffers for one
// conversion; rows circulate producer → feed → consumer → recycler.
type rowRecycler struct {
	mu   sync.Mutex
	free [][]int16
	n    int // row length in coefficients
	cd   *Codec
}

func (rc *rowRecycler) get() []int16 {
	rc.mu.Lock()
	var buf []int16
	if k := len(rc.free); k > 0 {
		buf = rc.free[k-1]
		rc.free = rc.free[:k-1]
	}
	rc.mu.Unlock()
	if buf == nil {
		buf = rc.cd.getRowBuf(rc.n)
	}
	clear(buf)
	return buf
}

func (rc *rowRecycler) put(buf []int16) {
	rc.mu.Lock()
	rc.free = append(rc.free, buf)
	rc.mu.Unlock()
}

// drainTo returns every idle buffer to the codec's cross-conversion pool.
func (rc *rowRecycler) drainTo(cd *Codec) {
	rc.mu.Lock()
	free := rc.free
	rc.free = nil
	rc.mu.Unlock()
	for _, b := range free {
		cd.putRowBuf(b)
	}
}

// feedRows is the encode-side model.RowWindow for one (segment, component)
// pair: the producer pushes decoded rows in ascending order, the segment's
// model encoder pulls them — blocking until delivery — and rows the model
// has moved past are recycled immediately, crediting the gate.
type feedRows struct {
	mu      sync.Mutex
	cond    *sync.Cond
	base    int // absolute block row of rows[0]
	rows    [][]int16
	next    int // next absolute row the producer will push (== base+len(rows))
	aborted bool

	free     *rowRecycler
	gate     *memGate
	rowBytes int64
}

func newFeedRows(firstRow int, free *rowRecycler, gate *memGate, rowBytes int64) *feedRows {
	fr := &feedRows{base: firstRow, next: firstRow, free: free, gate: gate, rowBytes: rowBytes}
	fr.cond = sync.NewCond(&fr.mu)
	return fr
}

// push delivers the next row (producer side; gate bytes were acquired when
// the buffer was handed out).
func (fr *feedRows) push(buf []int16) {
	fr.mu.Lock()
	fr.rows = append(fr.rows, buf)
	fr.next++
	fr.mu.Unlock()
	fr.cond.Signal()
}

// Row implements model.RowWindow: recycle everything below row-1 (the model
// still reads the row above the one it is coding), then wait for row.
func (fr *feedRows) Row(row int) []int16 {
	fr.mu.Lock()
	for fr.base < row-1 && len(fr.rows) > 0 {
		buf := fr.rows[0]
		fr.rows = fr.rows[1:]
		fr.base++
		fr.free.put(buf)
		fr.gate.release(fr.rowBytes)
	}
	for !fr.aborted && fr.next <= row {
		fr.cond.Wait()
	}
	if fr.aborted {
		fr.mu.Unlock()
		return nil
	}
	buf := fr.rows[row-fr.base]
	fr.mu.Unlock()
	return buf
}

func (fr *feedRows) abort() {
	fr.mu.Lock()
	fr.aborted = true
	fr.mu.Unlock()
	fr.cond.Broadcast()
}

// drain recycles whatever the feed still holds (segment finished or
// conversion aborted).
func (fr *feedRows) drain() {
	fr.mu.Lock()
	rows := fr.rows
	fr.rows = nil
	fr.base = fr.next
	fr.mu.Unlock()
	for _, buf := range rows {
		fr.free.put(buf)
		fr.gate.release(fr.rowBytes)
	}
}

// --- the encode producer's sink -------------------------------------------

// encodeRouter implements jpeg.RowSink for the streamed encode: it hands
// the scan decoder gate-accounted row buffers and routes each finished row
// to the feed of the segment that owns it.
type encodeRouter struct {
	f     *jpeg.File
	gate  *memGate
	recs  []*rowRecycler
	feeds [][]*feedRows // [segment][component]
	// segRowEnd[i] is the first MCU row owned by segment i+1.
	segRowEnd []int
	segOf     []int // per component: current segment cursor (rows ascend)
	rowB      []int64
	ctx       context.Context
	failed    error
}

func (rt *encodeRouter) GetRowBuf(ci int) []int16 {
	if !rt.gate.acquire(rt.rowB[ci]) {
		// Aborted: hand back a throwaway buffer and let EmitRow surface
		// the error — the scan decoder has no error path on Get.
		if rt.failed == nil {
			if rt.failed = rt.ctx.Err(); rt.failed == nil {
				rt.failed = context.Canceled
			}
		}
		return make([]int16, rt.recs[ci].n)
	}
	return rt.recs[ci].get()
}

func (rt *encodeRouter) EmitRow(ci, row int, coeff []int16) error {
	if rt.failed != nil {
		return rt.failed
	}
	if err := rt.ctx.Err(); err != nil {
		rt.gate.release(rt.rowB[ci])
		return err
	}
	mcuRow := row / vEff(rt.f, ci)
	for rt.segOf[ci]+1 < len(rt.feeds) && mcuRow >= rt.segRowEnd[rt.segOf[ci]] {
		rt.segOf[ci]++
	}
	rt.feeds[rt.segOf[ci]][ci].push(coeff)
	return nil
}
