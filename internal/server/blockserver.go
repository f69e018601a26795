package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lepton/internal/core"
	"lepton/internal/jpeg"
	"lepton/internal/metrics"
	"lepton/internal/store"
)

// StatsSnapshot returns a point-in-time view of this node's counters —
// including the range-decode split and the streamed-coefficient memory
// gauges (current and peak row-window bytes, the §5.1 ceiling as actually
// observed) of the conversions it ran — plus in-flight and shard-queue
// state, in a form ready for expvar/JSON export; see cmd/blockserverd's
// -debug-addr. A restarted node starts from zero.
func (b *Blockserver) StatsSnapshot() map[string]int64 {
	snap := b.counters().Snapshot()
	snap["in_flight"] = int64(b.InFlight())
	if b.Outsource != nil {
		// Target selection and per-peer probe RTTs of the outsourcing
		// router: outsource_probe_failures, outsource_node<i>_srtt_us, ...
		for k, v := range b.Outsource.StatsSnapshot() {
			snap["outsource_"+k] = v
		}
	}
	if b.Store != nil {
		// Durability counters from a stats-capable backend (the disk
		// store): segment count, live/garbage bytes, quarantines,
		// compactions — the healing signals leptonload graphs.
		for k, v := range b.Store.BackendStats() {
			snap["store_"+k] = v
		}
	}
	b.connMu.Lock()
	p := b.pool
	b.connMu.Unlock()
	if p != nil {
		p.mu.Lock()
		snap["shards"] = int64(len(p.shards))
		for i := range p.shards {
			s := &p.shards[i]
			snap[fmt.Sprintf("shard%d_depth", i)] = int64(s.depth())
			snap[fmt.Sprintf("shard%d_done", i)] = s.jobs
			snap[fmt.Sprintf("shard%d_steals", i)] = s.steals
		}
		p.mu.Unlock()
	}
	return snap
}

// Blockserver serves Lepton conversions on a listener. It mirrors the
// production setup: a 16-core box where a few concurrent Lepton jobs
// saturate the machine, so conversions run on a fixed set of per-core
// worker shards (Shards, default GOMAXPROCS) and compressions arriving
// beyond OutsourceThreshold are forwarded through the Outsource fleet when
// one is configured (§5.5).
//
// Connections are persistent: each serves a request loop until the client
// closes or a streaming failure forces a teardown. Every connection is
// pinned to a shard whose worker owns a private core.Codec, so a
// connection's steady-state conversions reuse model tables, coefficient
// planes, and scratch buffers that stay resident on one core; idle workers
// steal from busy shards, so the pinning never strands throughput (see
// shards.go).
//
// Every conversion runs under a context derived from its connection: a
// peer that disconnects mid-request, or a RequestTimeout that expires,
// cancels the conversion at its next block-row checkpoint instead of
// letting it burn a worker slot to completion (the paper's per-request
// deadline discipline, §5.7). Shutdown drains the server gracefully.
type Blockserver struct {
	// Outsource, when non-nil, routes compression jobs arriving while
	// OutsourceThreshold or more conversions are in flight to other
	// blockservers — peers ("To Self") or a dedicated cluster (§5.5.1).
	// The caller owns its Close.
	Outsource *Fleet
	// OutsourceThreshold is the concurrent-conversion limit; the paper used
	// "more than three conversions at a time".
	OutsourceThreshold int
	// Shards is the number of worker shards — the bound on conversions
	// running at once; 0 means one per core (GOMAXPROCS). Requests beyond
	// the bound queue on their connection's shard; InFlight counts queued
	// and running conversions alike so load probes and the outsourcing
	// trigger see the backlog.
	Shards int
	// RequestTimeout, when positive, bounds each conversion end to end: the
	// per-request context expires after this much time and the conversion
	// aborts at its next checkpoint with a StatusError response.
	RequestTimeout time.Duration
	// Store, when non-nil, enables the store-backed operations
	// (OpPutChunkCompressed, OpGetChunkCompressed, OpGetRange,
	// OpListChunks). Serve replaces its Codec with one that counts toward
	// this node.
	Store *store.Store
	// Logf, when set, receives diagnostics.
	Logf func(format string, args ...any)

	// stats is the node's counter set: its request counters plus the
	// range_* and coeff_window_bytes counters of every codec it runs
	// (shard codecs and the Store's). get_ranges counts OpGetRange
	// requests, fast path and fallback alike; cancelled counts
	// conversions aborted mid-flight by a per-request context (peer
	// disconnect, RequestTimeout, forced drain); writevs counts the
	// vectored write batches of streamed responses, each one writev
	// syscall covering up to vecMaxIOV decoder segments.
	stats     *metrics.Set
	statsOnce sync.Once

	inFlight atomic.Int32
	pool     *shardPool
	connSeq  atomic.Uint32 // round-robin shard affinity for new connections
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool

	initOnce  sync.Once
	baseCtx   context.Context // parent of every request context
	cancelAll context.CancelFunc

	connMu sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
}

// DefaultWriteTimeout bounds how long one request may take from dispatch
// until its response has reached the client. Because conversions hold a
// worker-pool slot through their response write, a client that stops
// reading would otherwise pin a slot forever; the deadline turns that into
// a connection teardown. It is generous against slow networks.
const DefaultWriteTimeout = 2 * time.Minute

// srvConn wraps one accepted connection with the read-ahead state the
// request watchdog shares with the request loop, and the serving flag
// Shutdown consults to tell requests in flight from idle keepalives.
type srvConn struct {
	conn net.Conn
	// pend holds bytes the watchdog read ahead of the request loop (the
	// first byte of a pipelined next request); eof records a clean
	// half-close. Both are only touched by the watchdog goroutine and, after
	// it finishes, by the request loop — never concurrently.
	pend    []byte
	eof     bool
	serving atomic.Bool

	// affinity is the connection's preferred worker shard, assigned
	// round-robin at accept.
	affinity int
	// job is the reusable dispatch record (one request in flight per
	// connection), so steady-state shard dispatch allocates nothing.
	job shardJob
	// rbuf is the connection's reusable request-payload buffer: ReadRequest
	// reads every request into it instead of allocating per request. The
	// payload handed to a job aliases it and is valid only until the next
	// request is read: every consumer either finishes with it before the
	// response completes (the codec paths) or copies it (the store puts).
	rbuf []byte
	// fw is the reusable vectored frame writer for streamed decompress
	// responses. Only the worker running this connection's job touches it.
	fw vecFrameWriter
}

// Read hands back watchdog read-ahead first, then the connection; a clean
// EOF observed by the watchdog is replayed once the read-ahead drains.
func (sc *srvConn) Read(p []byte) (int, error) {
	if len(sc.pend) > 0 {
		n := copy(p, sc.pend)
		sc.pend = sc.pend[n:]
		return n, nil
	}
	if sc.eof {
		return 0, io.EOF
	}
	return sc.conn.Read(p)
}

// counters returns the node's counter set, creating it on first use: a
// Blockserver is built as a struct literal, and StatsSnapshot may run
// before Serve. Request paths, which only run after init, use b.stats
// directly.
func (b *Blockserver) counters() *metrics.Set {
	b.statsOnce.Do(func() {
		b.stats = core.NewStatsSet("compresses", "decompresses", "get_ranges",
			"outsourced", "errors", "cancelled", "writevs")
	})
	return b.stats
}

func (b *Blockserver) init() {
	b.initOnce.Do(func() {
		set := b.counters()
		if b.Store != nil {
			b.Store.Codec = core.NewCodecIn(set)
		}
		b.baseCtx, b.cancelAll = context.WithCancel(context.Background())
		b.conns = make(map[*srvConn]struct{})
		if b.OutsourceThreshold == 0 {
			b.OutsourceThreshold = 3
		}
		n := b.Shards
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		// Published under connMu so StatsSnapshot can read the pool
		// concurrently with a lazy init from another goroutine's Serve.
		b.connMu.Lock()
		b.pool = newShardPool(n, set)
		b.connMu.Unlock()
	})
}

// Serve accepts connections until the listener is closed (Close/Shutdown).
func (b *Blockserver) Serve(ln net.Listener) error {
	b.init()
	b.connMu.Lock()
	b.ln = ln
	b.connMu.Unlock()
	if b.closed.Load() {
		// Shutdown won the race with Serve: refuse to start.
		_ = ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if b.closed.Load() {
				return nil
			}
			return err
		}
		// Register under connMu so the Add is ordered against Shutdown's
		// closed-flag publication: either the handler is counted before the
		// drain's wg.Wait begins, or the closed flag is already visible here
		// and the connection is refused. Without this ordering a
		// just-accepted connection could call wg.Add concurrently with
		// wg.Wait on a zero counter — the documented WaitGroup misuse.
		b.connMu.Lock()
		if b.closed.Load() {
			b.connMu.Unlock()
			_ = conn.Close()
			continue
		}
		b.wg.Add(1)
		b.connMu.Unlock()
		go func() {
			defer b.wg.Done()
			b.handle(conn)
		}()
	}
}

// Close stops the server immediately: the listener closes, every
// connection is torn down, and in-flight conversions are cancelled at
// their next checkpoint. Prefer Shutdown for a graceful drain.
func (b *Blockserver) Close() error {
	b.init()
	err := b.beginDrain()
	b.cancelAll()
	b.closeConns(true)
	b.wg.Wait()
	b.pool.close()
	return err
}

// beginDrain publishes the closed/draining flags and closes the listener
// under connMu, ordering the flags against Serve's accept-time wg.Add (see
// Serve). Idempotent: a Close after a Shutdown (or a double Close) must not
// re-close the listener and report a phantom net.ErrClosed.
func (b *Blockserver) beginDrain() error {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.closed.Load() {
		return nil
	}
	b.closed.Store(true)
	b.draining.Store(true)
	if b.ln == nil {
		return nil
	}
	return b.ln.Close()
}

// Shutdown drains the server gracefully: the listener closes immediately
// (new connections are refused), idle persistent connections are closed,
// and requests already in flight run to completion. If ctx expires before
// the drain finishes, the stragglers' request contexts are cancelled —
// conversions abort at their next block-row checkpoint — and their
// connections closed; Shutdown still waits for every handler to unwind
// before returning ctx.Err(). A nil error means a clean drain.
func (b *Blockserver) Shutdown(ctx context.Context) error {
	b.init()
	_ = b.beginDrain()
	b.closeConns(false)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		b.pool.close()
		return nil
	case <-ctx.Done():
		b.cancelAll()
		b.closeConns(true)
		<-done
		b.pool.close()
		return ctx.Err()
	}
}

// closeConns closes tracked connections — all of them, or only those with
// no request currently being served.
func (b *Blockserver) closeConns(includeServing bool) {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	for sc := range b.conns {
		if includeServing || !sc.serving.Load() {
			_ = sc.conn.Close()
		}
	}
}

func (b *Blockserver) track(sc *srvConn) {
	b.connMu.Lock()
	b.conns[sc] = struct{}{}
	b.connMu.Unlock()
}

func (b *Blockserver) untrack(sc *srvConn) {
	b.connMu.Lock()
	delete(b.conns, sc)
	b.connMu.Unlock()
}

// beginServing flips the connection into serving state unless a drain has
// started; taken under connMu so Shutdown's idle-connection sweep cannot
// interleave with the transition.
func (b *Blockserver) beginServing(sc *srvConn) bool {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.draining.Load() {
		return false
	}
	sc.serving.Store(true)
	return true
}

// InFlight returns the number of conversions currently queued or running.
func (b *Blockserver) InFlight() int { return int(b.inFlight.Load()) }

func (b *Blockserver) logf(format string, args ...any) {
	if b.Logf != nil {
		b.Logf(format, args...)
	}
}

// handle runs one connection's request loop: requests are served in order
// until the peer closes (or half-closes, as the one-shot protocol does), a
// mid-stream failure makes the framing unrecoverable, or a drain begins.
func (b *Blockserver) handle(conn net.Conn) {
	sc := &srvConn{conn: conn}
	sc.affinity = int(b.connSeq.Add(1)-1) % len(b.pool.shards)
	b.track(sc)
	defer b.untrack(sc)
	defer conn.Close()
	for {
		if b.draining.Load() {
			return
		}
		op, payload, err := ReadRequest(sc, sc.rbuf)
		if err != nil {
			// EOF here is the normal end of a persistent connection.
			if !errors.Is(err, io.EOF) && !b.draining.Load() {
				b.stats.Add("errors", 1)
			}
			return
		}
		sc.rbuf = payload
		if !b.beginServing(sc) {
			return
		}
		ok := b.serveOne(sc, op, payload)
		sc.serving.Store(false)
		if !ok {
			return
		}
	}
}

// withRequestCtx runs one conversion under a context derived from the
// server's base context (cancelled on forced shutdown) and the connection:
// a watchdog goroutine reads the connection while the conversion runs. The
// protocol is strictly request/response, so nothing should arrive from the
// peer before our response — a byte means the client pipelined its next
// request (kept for the next ReadRequest), a clean EOF is the one-shot
// protocol's half-close (not an abort), and a read error is a genuine
// disconnect: the request context is cancelled so the conversion stops
// burning a worker slot for a client that is gone. RequestTimeout, when
// set, bounds the whole conversion.
func (b *Blockserver) withRequestCtx(sc *srvConn, fn func(ctx context.Context) bool) bool {
	ctx, cancel := context.WithCancel(b.baseCtx)
	defer cancel()
	if b.RequestTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, b.RequestTimeout)
		defer tcancel()
	}
	var peerGone atomic.Bool
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		var one [1]byte
		for {
			n, err := sc.conn.Read(one[:])
			if n > 0 {
				sc.pend = append(sc.pend, one[0])
				return
			}
			if err != nil {
				switch {
				case errors.Is(err, io.EOF):
					sc.eof = true
				case errors.Is(err, os.ErrDeadlineExceeded):
					// Not a disconnect. The server never sets read deadlines
					// today (serveOne sets only the write deadline), but if
					// one is ever introduced, a timeout must stop the watch
					// without cancelling a healthy conversion.
				default:
					peerGone.Store(true)
					cancel()
				}
				return
			}
		}
	}()
	ok := fn(ctx)
	// The response is written: what remains is waiting for the peer's next
	// byte, which is idle time — clear serving so a drain may close the
	// connection out from under the wait. The store-then-check order pairs
	// with Shutdown's set-draining-then-sweep: whichever side runs second
	// sees the other's flag, so a request finishing mid-drain always gets
	// its connection closed.
	sc.serving.Store(false)
	if !ok || b.draining.Load() {
		// Teardown required (framing unrecoverable, or a drain is in
		// progress); closing also unblocks the watchdog if the peer is
		// still connected but silent.
		_ = sc.conn.Close()
	}
	<-watchDone
	return ok && !peerGone.Load()
}

// respondErr reports a conversion failure in-band. A context abort — the
// per-request timeout, a drain force-cancel, a cancelled queue wait — is a
// node-local condition, answered with StatusRetry so routed clients try
// another node; everything else is a deterministic StatusError.
func (b *Blockserver) respondErr(conn net.Conn, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		b.stats.Add("cancelled", 1)
		return WriteResponse(conn, StatusRetry, []byte(err.Error())) == nil
	}
	b.stats.Add("errors", 1)
	return WriteResponse(conn, StatusError, []byte(err.Error())) == nil
}

// serveOne dispatches one request and reports whether the connection can
// serve another (false after a write failure or a decode error discovered
// mid-stream, when the only correct signal left is closing the
// connection).
func (b *Blockserver) serveOne(sc *srvConn, op byte, payload []byte) bool {
	conn := sc.conn
	// Bound the whole serve+respond; a client that stops reading must not
	// pin a worker-pool slot past the deadline.
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	switch op {
	case OpLoad:
		var resp [4]byte
		binary.LittleEndian.PutUint32(resp[:], uint32(b.inFlight.Load()))
		return WriteResponse(conn, StatusOK, resp[:]) == nil
	case OpCompress, OpCompressLocal:
		return b.withRequestCtx(sc, func(ctx context.Context) bool {
			return b.serveCompress(ctx, sc, op == OpCompress, payload)
		})
	case OpDecompress:
		return b.withRequestCtx(sc, func(ctx context.Context) bool {
			return b.serveDecompress(ctx, sc, payload)
		})
	case OpPutChunkCompressed, OpGetChunkCompressed, OpListChunks, OpGetRange:
		return b.withRequestCtx(sc, func(ctx context.Context) bool {
			return b.handleStoreOp(ctx, sc, op, payload)
		})
	default:
		b.stats.Add("errors", 1)
		return WriteResponse(conn, StatusError, []byte("unknown op")) == nil
	}
}

// serveCompress compresses one payload, outsourcing it first when allowed
// and oversubscribed. An outsourced job arrives as OpCompressLocal and is
// never forwarded again: it does not count toward the forwarder's
// in-flight gauge, so two mutually outsourcing servers over threshold
// would otherwise bounce it between them forever.
func (b *Blockserver) serveCompress(ctx context.Context, sc *srvConn, mayOutsource bool, payload []byte) bool {
	conn := sc.conn
	// Outsource when oversubscribed (§5.5): a blockserver handling
	// many cheap requests can be randomly assigned too many Lepton
	// conversions at once. The remote round trip runs here on the
	// connection goroutine, never on a shard worker.
	if mayOutsource && b.Outsource != nil && int(b.inFlight.Load()) >= b.OutsourceThreshold {
		octx, ocancel := context.WithTimeout(ctx, 30*time.Second)
		resp, err := b.Outsource.outsource(octx, payload)
		ocancel()
		if err == nil {
			b.stats.Add("outsourced", 1)
			return WriteResponse(conn, StatusOK, resp) == nil
		}
		if ctx.Err() != nil {
			return b.respondErr(conn, ctx.Err())
		}
		if !errors.Is(err, ErrNoNodes) {
			b.logf("outsource failed: %v; handling locally", err)
		}
	}
	ok, err := b.runOnShard(ctx, sc, jobCompress, payload)
	if err != nil {
		return b.respondErr(conn, err)
	}
	return ok
}

// compressLocal runs on a shard worker with the shard's private codec.
func (b *Blockserver) compressLocal(ctx context.Context, cd *core.Codec, conn net.Conn, payload []byte) bool {
	b.stats.Add("compresses", 1)
	res, err := cd.EncodeCtx(ctx, payload, core.EncodeOptions{VerifyRoundtrip: true})
	if err != nil {
		if ctx.Err() != nil {
			return b.respondErr(conn, ctx.Err())
		}
		// Unsupported inputs are service-level successes with a
		// fallback marker: production stored them with Deflate.
		if jpeg.ReasonOf(err) != jpeg.ReasonNone {
			raw, merr := cd.MarshalContainer(&core.Container{Mode: core.ModeRaw, Raw: payload, OutputSize: uint32(len(payload))})
			if merr == nil {
				return WriteResponse(conn, StatusOK, raw) == nil
			}
		}
		return b.respondErr(conn, err)
	}
	return WriteResponse(conn, StatusOK, res.Compressed) == nil
}

func (b *Blockserver) serveDecompress(ctx context.Context, sc *srvConn, payload []byte) bool {
	ok, err := b.runOnShard(ctx, sc, jobDecompress, payload)
	if err != nil {
		return b.respondErr(sc.conn, err)
	}
	return ok
}

// decompressLocal runs on a shard worker with the shard's private codec.
// The container header records the exact output size, so the response can
// be framed up front and the reconstruction streamed into the connection
// segment by segment (§3.4) instead of being buffered whole.
func (b *Blockserver) decompressLocal(ctx context.Context, cd *core.Codec, sc *srvConn, payload []byte) bool {
	b.stats.Add("decompresses", 1)
	size, err := core.ContainerOutputSize(payload)
	if err != nil {
		b.stats.Add("errors", 1)
		return WriteResponse(sc.conn, StatusError, []byte(err.Error())) == nil
	}
	return b.streamResponse(ctx, sc, size, "decompress", func(w io.Writer) error {
		return cd.DecodeToCtx(ctx, w, payload, 0)
	})
}

// streamResponse frames a size-byte OK response and streams decode's output
// into it. Output goes through the connection's vectored frame writer,
// which batches the frame header and the decoder's segments into a handful
// of writev calls; the queued slices alias codec-pooled buffers, which is
// safe precisely because the codec is shard-private — nothing can recycle
// those pools until this worker finishes this job, and the final flush
// happens before it does. As long as nothing has hit the wire yet, any
// failure — mid-stream aborts whose output is still queued included — can
// still be answered in-band on an intact connection; after the first
// flush, the header has promised size bytes and a shortfall can only be
// signaled by tearing the connection down. what names the op in the log.
func (b *Blockserver) streamResponse(ctx context.Context, sc *srvConn, size uint32, what string, decode func(io.Writer) error) bool {
	conn := sc.conn
	w := &sc.fw
	w.reset(conn, size, b.stats)
	if err := decode(w); err != nil {
		if !w.wrote {
			w.discard()
			return b.respondErr(conn, err)
		}
		if ctx.Err() != nil {
			b.stats.Add("cancelled", 1)
		} else {
			b.stats.Add("errors", 1)
		}
		w.discard()
		b.logf("%s stream failed: %v", what, err)
		return false
	}
	if !w.wrote && w.pending == 0 {
		// Zero-length body (an empty raw chunk, or a range at or past the
		// end): frame it now.
		return WriteResponseHeader(conn, StatusOK, size) == nil
	}
	if err := w.Flush(); err != nil {
		// A response write failure: the connection is done either way.
		b.stats.Add("errors", 1)
		return false
	}
	return true
}

func (b *Blockserver) handleStoreOp(ctx context.Context, sc *srvConn, op byte, payload []byte) bool {
	conn := sc.conn
	if b.Store == nil {
		b.stats.Add("errors", 1)
		return WriteResponse(conn, StatusError, []byte("no store configured")) == nil
	}
	fail := func(err error) bool {
		return b.respondErr(conn, err)
	}
	switch op {
	case OpPutChunkCompressed:
		// Client-side codec (§7): "only" verification runs here — but that
		// is a full decode, so it takes a shard worker like any other
		// conversion; otherwise fleet-store puts would bypass the worker
		// bound and stay invisible to the load probes routing them.
		ok, err := b.runOnShard(ctx, sc, jobPutCompressed, payload)
		if err != nil {
			return fail(err)
		}
		return ok
	case OpGetRange:
		// A range decode is a (partial) conversion, so it takes a shard
		// worker like a decompress; the fixed-size request is parsed here
		// on the connection goroutine.
		if len(payload) != getRangeReqLen {
			return fail(fmt.Errorf("get-range request is %d bytes, want %d", len(payload), getRangeReqLen))
		}
		h, err := hashOf(payload[:32])
		if err != nil {
			return fail(err)
		}
		off := int64(binary.LittleEndian.Uint64(payload[32:]))
		if off < 0 {
			return fail(core.ErrInvalidRange)
		}
		sc.job.hash = h
		sc.job.off = off
		sc.job.n = int64(binary.LittleEndian.Uint32(payload[40:]))
		ok, rerr := b.runOnShard(ctx, sc, jobGetRange, nil)
		if rerr != nil {
			return fail(rerr)
		}
		return ok
	case OpGetChunkCompressed:
		h, err := hashOf(payload)
		if err != nil {
			return fail(err)
		}
		cb, ok := b.Store.GetCompressedChunk(h)
		if !ok {
			// A miss is answered with its own status byte so replicated
			// readers can key read-repair on it without parsing error
			// prose; it still counts as an error for this node's stats.
			b.stats.Add("errors", 1)
			return WriteResponse(conn, StatusNotFound, []byte("unknown chunk")) == nil
		}
		return WriteResponse(conn, StatusOK, cb) == nil
	case OpListChunks:
		// An index walk, not a conversion: served inline like the
		// compressed-get path, no shard worker.
		if len(payload) != 36 {
			return fail(fmt.Errorf("list-chunks request is %d bytes, want 36", len(payload)))
		}
		var after store.Hash
		copy(after[:], payload[:32])
		max := int(binary.LittleEndian.Uint32(payload[32:]))
		if max <= 0 || max > ListChunksPageMax {
			max = ListChunksPageMax
		}
		hashes := b.Store.HashesAfter(after, max)
		resp := make([]byte, 0, len(hashes)*32)
		for _, h := range hashes {
			resp = append(resp, h[:]...)
		}
		return WriteResponse(conn, StatusOK, resp) == nil
	}
	return true
}

// putCompressedLocal runs OpPutChunkCompressed on a shard worker. The
// admission check goes through the Store's own codec (its budgets and
// shutoff switch are store configuration); the shard still bounds its
// concurrency.
func (b *Blockserver) putCompressedLocal(ctx context.Context, conn net.Conn, payload []byte) bool {
	h, err := b.Store.PutCompressedChunkCtx(ctx, payload)
	if err != nil {
		return b.respondErr(conn, err)
	}
	return WriteResponse(conn, StatusOK, h[:]) == nil
}

// getRangeLocal runs OpGetRange on a shard worker: decode only the chunk
// rows overlapping [off, off+n) and stream exactly those bytes. The range
// decoder reports the response length up front (RangeLength clamps against
// the container's recorded output size), so the response streams like a
// full decompress.
func (b *Blockserver) getRangeLocal(ctx context.Context, cd *core.Codec, sc *srvConn, h store.Hash, off, n int64) bool {
	conn := sc.conn
	b.stats.Add("get_ranges", 1)
	cb, ok := b.Store.GetCompressedChunk(h)
	if !ok {
		b.stats.Add("errors", 1)
		return WriteResponse(conn, StatusNotFound, []byte("unknown chunk")) == nil
	}
	rlen, err := core.RangeLength(cb, off, n)
	if err != nil {
		b.stats.Add("errors", 1)
		return WriteResponse(conn, StatusError, []byte(err.Error())) == nil
	}
	if rlen > maxPayload {
		// The client's ReadResponse caps a frame at maxPayload; a range this
		// large should be fetched as the whole chunk instead.
		b.stats.Add("errors", 1)
		return WriteResponse(conn, StatusError,
			[]byte(fmt.Sprintf("range of %d bytes exceeds the %d-byte response limit", rlen, maxPayload))) == nil
	}
	return b.streamResponse(ctx, sc, uint32(rlen), "get-range", func(w io.Writer) error {
		_, err := cd.DecodeRangeToCtx(ctx, w, cb, off, n, 0)
		return err
	})
}

// vecFrameWriter batches a streamed decompress response — frame header
// plus decoder output segments — into vectored writes (net.Buffers, one
// writev per flush on TCP and Unix sockets) instead of a write syscall per
// segment. Queued slices are only aliases; see streamResponse for why
// they stay valid until the flush. A small decode's entire response ships
// in a single writev.
//
// The header is queued with the first payload byte but reaches the wire
// only at the first flush, so every failure before then — not just
// pre-stream validation, as with the old unbuffered lazy writer — can
// still be reported as a StatusError on an intact connection.
type vecFrameWriter struct {
	conn    net.Conn
	size    uint32
	hdr     [5]byte
	bufs    net.Buffers
	pending int          // payload bytes queued and not yet flushed
	wrote   bool         // something reached the wire; the response is committed
	stats   *metrics.Set // counts writevs
}

// Flush thresholds: enough batching to collapse a typical multi-segment
// decode into a few syscalls, low enough that a large reconstruction
// streams instead of accumulating (and stays well under the kernel's 1024
// iovec ceiling).
const (
	vecFlushBytes = 256 << 10
	vecMaxIOV     = 64
)

func (w *vecFrameWriter) reset(conn net.Conn, size uint32, stats *metrics.Set) {
	w.conn = conn
	w.size = size
	w.pending = 0
	w.wrote = false
	w.stats = stats
	w.bufs = w.bufs[:0]
}

func (w *vecFrameWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if len(w.bufs) == 0 && !w.wrote {
		w.hdr[0] = StatusOK
		binary.LittleEndian.PutUint32(w.hdr[1:], w.size)
		w.bufs = append(w.bufs, w.hdr[:])
	}
	w.bufs = append(w.bufs, p)
	w.pending += len(p)
	if w.pending >= vecFlushBytes || len(w.bufs) >= vecMaxIOV {
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// Flush writes everything queued in one vectored write.
func (w *vecFrameWriter) Flush() error {
	if len(w.bufs) == 0 {
		return nil
	}
	w.wrote = true
	w.stats.Add("writevs", 1)
	// WriteTo consumes a copy of the slice header; w.bufs keeps the full
	// backing view so discard() below can release the aliased segments.
	v := w.bufs
	_, err := v.WriteTo(w.conn)
	w.discard()
	return err
}

// discard drops queued-but-unflushed output and releases the aliases.
func (w *vecFrameWriter) discard() {
	for i := range w.bufs {
		w.bufs[i] = nil
	}
	w.bufs = w.bufs[:0]
	w.pending = 0
}

func hashOf(payload []byte) (store.Hash, error) {
	var h store.Hash
	if len(payload) != len(h) {
		return h, fmt.Errorf("hash must be %d bytes, got %d", len(h), len(payload))
	}
	copy(h[:], payload)
	return h, nil
}

// ListenAndServe starts a blockserver on addr ("unix:<path>" or
// "tcp:<host:port>") and returns it with the bound address; callers own
// Close (or Shutdown for a graceful drain).
func ListenAndServe(addr string, b *Blockserver) (bound string, err error) {
	network, address, err := splitAddr(addr)
	if err != nil {
		return "", err
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return "", err
	}
	go func() {
		if err := b.Serve(ln); err != nil {
			log.Printf("blockserver: serve: %v", err)
		}
	}()
	if network == "unix" {
		return "unix:" + ln.Addr().String(), nil
	}
	return "tcp:" + ln.Addr().String(), nil
}
