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
// limits how far that decode runs ahead (a shared room, with
// MemEncodeBudget as the hard ceiling), and the coefficient-
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
// per live segment, and at most maxLiveSegments segments run at once. This
// — not the whole coefficient planes — is what MemDecodeBudget bounds; it
// grows with image *width* and live segments, never with image height or
// with segments beyond the live ones.
func DecodeWindowBytes(f *jpeg.File, nSeg int) int64 {
	live := min(max(nSeg, 1), maxLiveSegments)
	var per int64
	for ci := range f.Components {
		per += int64(windowRowsFor(vEff(f, ci))) * rowBytes(f, ci)
	}
	return per * int64(live)
}

// encodeMinGateBytes returns the smallest retained-row ceiling at which the
// streamed encode cannot deadlock. The scan decode produces rows in MCU
// order and the segment coders consume them in the same MCU-row order, so
// a segment waiting on MCU row r holds at most its (V+1)-row window per
// component, and the producer needs one MCU row group in flight. The floor
// is independent of image height and segment count.
func encodeMinGateBytes(f *jpeg.File) int64 {
	group := int64(0)
	for ci := range f.Components {
		group += int64(vEff(f, ci)) * rowBytes(f, ci)
	}
	return DecodeWindowBytes(f, 1) + group
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

// encodeRoomBytes is the encode's room: the coefficient bytes the feeds of
// the segments the producer has not passed (see EncodeScanCtx) may hold
// together, ahead of their coders. A producer out of room resumes only
// once the coders have worked their feeds down to half of it, so rows
// change hands in batches of about 2 MiB rather than one at a time. It is
// counted in bytes, not rows, so a wide image does not buy a larger
// window. On a 2-vCPU host a 1 MiB room held the photo-codec benchmark's
// peak RSS about a tenth lower, but cost the large-range benchmark (one
// caller, 12-40 MP photos, a segment per 128 KiB of JPEG) about 8% of its
// CPU per MB and of its put throughput: when a segment does not fit the
// room, its coder keeps stalling on the producer.
const encodeRoomBytes = 4 << 20

// encodeRoom returns the room and the level a producer waiting on it
// resumes at. The resume level is at least encodeMinGateBytes: a coder
// waiting for a row it has not been given holds no more than that, so a
// producer out of room always waits on coders that have work.
func encodeRoom(f *jpeg.File) (room, resume int64) {
	resume = max(encodeRoomBytes/2, encodeMinGateBytes(f))
	return 2 * resume, resume
}

// memGate is the encode producer's brake. It bounds the coefficient bytes
// acquired for segment feeds but not yet consumed and recycled twice over:
// all of them by the conversion's ceiling, and those of the segments the
// producer has not passed by the room. The producer passes a segment —
// fills its feed regardless of the room — only to reach a later segment
// that can use a CPU (mayPass). The producer is the only goroutine that
// waits on the gate. It mirrors its balance into the codec's
// coefficient-window gauge and settles any remainder at close, so error
// paths cannot leak the gauge.
type memGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	inUse   int64
	limit   int64
	aborted bool
	window  *metrics.Gauge

	held         []int64 // per segment: bytes acquired and not yet recycled
	passed, done []bool  // per segment
	roomed       int64   // bytes held by segments not passed
	room, resume int64
	cpus         int  // CPUs the segment coders may use at once
	waitCeil     bool // the producer waits on the ceiling
	waitRoom     bool // the producer waits on the room
}

func newMemGate(limit int64, window *metrics.Gauge, nSeg int, room, resume int64, cpus int) *memGate {
	g := &memGate{limit: limit, window: window, held: make([]int64, nSeg),
		passed: make([]bool, nSeg), done: make([]bool, nSeg),
		room: room, resume: resume, cpus: cpus}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until n bytes for a row of segment seg fit under the
// ceiling and, unless seg is passed, in the room (or the gate is aborted,
// returning false). The first acquisition of a conversion always succeeds:
// the ceiling is pre-raised to encodeMinGateBytes, the room to twice that.
func (g *memGate) acquire(seg int, n int64) bool {
	g.mu.Lock()
	mark := g.room
	for !g.aborted {
		if g.inUse+n > g.limit {
			g.waitCeil = true
			g.cond.Wait()
			g.waitCeil = false
			continue
		}
		if !g.passed[seg] && g.roomed+n > mark {
			if !g.mayPass(seg) {
				// Out of room: wait until the coders are down to the
				// resume level.
				mark = g.resume + n
				g.waitRoom = true
				g.cond.Wait()
				g.waitRoom = false
				continue
			}
			g.passed[seg] = true
			g.roomed -= g.held[seg]
		}
		g.inUse += n
		g.held[seg] += n
		if !g.passed[seg] {
			g.roomed += n
		}
		g.mu.Unlock()
		g.window.Add(n)
		return true
	}
	g.mu.Unlock()
	return false
}

// mayPass reports whether the producer may pass seg: only when a later
// segment exists and fewer of the segments before seg are unfinished than
// there are CPUs. Those segments have all their rows, so the coders that
// never wait on the producer stay fewer than the CPUs, and the next one
// can start on the CPU left over. seg itself is not counted: its coder
// waits on the producer whenever the room runs dry, so it does not keep a
// CPU busy the way a fed coder does. Every passed segment is seg or one of
// those before it, so at most cpus unfinished segments are ever passed.
func (g *memGate) mayPass(seg int) bool {
	if seg+1 >= len(g.done) {
		return false
	}
	busy := 0
	for _, d := range g.done[:seg] {
		if !d {
			busy++
		}
	}
	return busy < g.cpus
}

func (g *memGate) release(seg int, n int64) {
	g.mu.Lock()
	g.inUse -= n
	g.held[seg] -= n
	if !g.passed[seg] {
		g.roomed -= n
	}
	wake := g.waitCeil || (g.waitRoom && g.roomed <= g.resume)
	g.mu.Unlock()
	g.window.Add(-n)
	if wake {
		g.cond.Signal()
	}
}

// finish records that segment seg's coder is done. That can free a CPU
// for the next segment, so it wakes a producer waiting on the room.
func (g *memGate) finish(seg int) {
	g.mu.Lock()
	g.done[seg] = true
	wake := g.waitRoom
	g.mu.Unlock()
	if wake {
		g.cond.Signal()
	}
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
	seg      int
	rowBytes int64
}

func newFeedRows(firstRow int, free *rowRecycler, gate *memGate, seg int, rowBytes int64) *feedRows {
	fr := &feedRows{base: firstRow, next: firstRow, free: free, gate: gate, seg: seg, rowBytes: rowBytes}
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
		fr.gate.release(fr.seg, fr.rowBytes)
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
		fr.gate.release(fr.seg, fr.rowBytes)
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
	handed    []int // per component: block rows handed out so far
	rowB      []int64
	ctx       context.Context
	failed    error
}

// segFor returns the segment owning component ci's block row.
func (rt *encodeRouter) segFor(ci, row int) int {
	mcuRow := row / vEff(rt.f, ci)
	for rt.segOf[ci]+1 < len(rt.feeds) && mcuRow >= rt.segRowEnd[rt.segOf[ci]] {
		rt.segOf[ci]++
	}
	return rt.segOf[ci]
}

// GetRowBuf charges the buffer to the segment of the next row it will
// hold: the scan decoder asks for one buffer per row, in row order.
func (rt *encodeRouter) GetRowBuf(ci int) []int16 {
	seg := rt.segFor(ci, rt.handed[ci])
	rt.handed[ci]++
	if !rt.gate.acquire(seg, rt.rowB[ci]) {
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
	seg := rt.segFor(ci, row)
	if err := rt.ctx.Err(); err != nil {
		rt.gate.release(seg, rt.rowB[ci])
		return err
	}
	rt.feeds[seg][ci].push(coeff)
	return nil
}
