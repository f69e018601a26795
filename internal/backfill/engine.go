// The engine wires the pieces into the paper's backfill pipeline: a shared
// dispenser hands out manifest positions (retries first, then a sequential
// scan bounded to MaxAhead past the cursor, so out-of-order completion —
// and therefore post-crash duplicate work — stays bounded); one lane per
// fleet node pulls from it as fast as that node's pacer admits; every
// completion is verified against the input's content hash before the
// position is committed; a checkpointer cuts durable progress records on a
// timer and a commit-count kick; and a yield poller probes each node's
// in-flight depth, pausing or shrinking lanes the moment live traffic
// shows up. Kill the process anywhere and a restarted engine replays from
// the last checkpoint: committed work is skipped, uncommitted work is
// re-done, and nothing acknowledged is ever lost.
package backfill

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lepton/internal/core"
	"lepton/internal/server"
)

// Transport is the slice of *server.Fleet the engine drives: node
// enumeration, placement-addressed exchanges, and load probes.
type Transport interface {
	Nodes() []string
	NodeDown(addr string) bool
	DoNode(ctx context.Context, addr string, op byte, payload []byte) ([]byte, error)
	ProbeNode(ctx context.Context, addr string) (uint32, error)
}

// Config tunes one engine. The zero value of every field picks a sane
// default; Shards=0 means an unsharded (1-of-1) run.
type Config struct {
	// Shard/Shards split the manifest across workers: this engine owns
	// manifest indices ≡ Shard (mod Shards).
	Shard, Shards int

	// WindowFloor and WindowCap bound each node's congestion window
	// (defaults 1 and 32).
	WindowFloor, WindowCap int

	// MaxAhead bounds how far past the cursor the dispenser will hand out
	// work (default 1024). It caps both the done-ahead set and the
	// duplicate work a crash can cause.
	MaxAhead int

	// CheckpointEvery and CheckpointFiles cut a checkpoint on whichever
	// fires first: the timer (default 500ms) or this many commits since
	// the last cut (default 256).
	CheckpointEvery time.Duration
	CheckpointFiles int

	// YieldLow/YieldHigh are foreground in-flight thresholds per node:
	// at YieldLow the window shrinks toward its floor, at YieldHigh the
	// lane pauses outright (defaults 2 and 8). YieldPoll is the probe
	// cadence (default 50ms; negative disables yielding).
	YieldLow, YieldHigh int
	YieldPoll           time.Duration

	// Verify round-trips every compressed result through a local decode
	// and compares it byte for byte with the source before committing —
	// the production verify-before-commit step. Costs a decode per file.
	Verify bool

	// MaxAttempts quarantines a file after this many failed tries of the
	// kinds that plausibly indict the file (default 3). Pure transport
	// failures retry forever — they indict the node, not the file.
	MaxAttempts int

	// Logf receives progress and anomaly lines; nil discards them.
	Logf func(string, ...any)
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.Shards <= 0 {
		d.Shards, d.Shard = 1, 0
	}
	if d.WindowFloor <= 0 {
		d.WindowFloor = 1
	}
	if d.WindowCap <= 0 {
		d.WindowCap = 32
	}
	if d.MaxAhead <= 0 {
		d.MaxAhead = 1024
	}
	if d.CheckpointEvery <= 0 {
		d.CheckpointEvery = 500 * time.Millisecond
	}
	if d.CheckpointFiles <= 0 {
		d.CheckpointFiles = 256
	}
	if d.YieldHigh <= 0 {
		d.YieldHigh = 8
	}
	if d.YieldLow <= 0 {
		d.YieldLow = 2
	}
	if d.YieldPoll == 0 {
		d.YieldPoll = 50 * time.Millisecond
	}
	if d.MaxAttempts <= 0 {
		d.MaxAttempts = 3
	}
	if d.Logf == nil {
		d.Logf = func(string, ...any) {}
	}
	return d
}

// Result summarizes a Run. Counters prefixed "total" are cumulative across
// resumes (restored from the checkpoint); the rest cover this run only.
type Result struct {
	Resumed      bool
	Files        uint64   // committed this run
	TotalFiles   uint64   // committed across all runs
	TotalIn      uint64   // original bytes, cumulative
	TotalOut     uint64   // compressed bytes, cumulative
	Quarantined  []uint64 // global manifest indices, cumulative, sorted
	Retries      uint64   // requeues this run
	Checkpoints  uint64   // checkpoints cut this run
	YieldShrinks uint64   // yield-signal window shrinks this run
	YieldPauses  uint64   // yield-signal pauses this run
	Complete     bool     // every owned position handled
}

// laneIdle is how long a lane naps when the pacer or dispenser has nothing
// for it.
const laneIdle = time.Millisecond

type item struct {
	pos      uint64 // shard-local position
	attempts int    // file-indicting failures so far
}

// Engine runs one shard of one backfill. Build with New, drive with Run
// (single use).
type Engine struct {
	cfg   Config
	t     Transport
	src   Source
	cs    CheckpointStore
	m     Manifest
	nodes []string
	codec *core.Codec // Verify decodes

	shardLen uint64
	pacers   []*Pacer

	mu          sync.Mutex
	cursor      uint64
	done        map[uint64]struct{} // handled positions ≥ cursor
	quarantined map[uint64]struct{} // global manifest indices
	nextPos     uint64
	retry       []item
	inflight    int
	seq         uint64 // last durably saved checkpoint seq
	dirty       int    // commits since last checkpoint

	totalFiles, totalIn, totalOut uint64 // cumulative, checkpointed

	filesRun, retries, ckpts  atomic.Uint64
	yieldShrinks, yieldPauses atomic.Uint64

	resumed  bool
	ckptKick chan struct{}
}

// New builds an engine over the manifest shard cfg selects, resuming from
// the newest valid checkpoint in cs if one exists.
func New(cfg Config, t Transport, src Source, cs CheckpointStore, m Manifest) (*Engine, error) {
	c := cfg.withDefaults()
	if c.Shard < 0 || c.Shard >= c.Shards {
		return nil, fmt.Errorf("backfill: shard %d out of range of %d", c.Shard, c.Shards)
	}
	nodes := t.Nodes()
	if len(nodes) == 0 {
		return nil, errors.New("backfill: transport has no nodes")
	}
	e := &Engine{
		cfg:         c,
		t:           t,
		src:         src,
		cs:          cs,
		m:           m,
		nodes:       nodes,
		codec:       core.NewCodec(),
		done:        make(map[uint64]struct{}),
		quarantined: make(map[uint64]struct{}),
		ckptKick:    make(chan struct{}, 1),
	}
	n := uint64(len(m.Entries))
	k := uint64(c.Shards)
	s := uint64(c.Shard)
	if n > s {
		e.shardLen = (n - s + k - 1) / k
	}
	for range nodes {
		e.pacers = append(e.pacers, NewPacer(c.WindowFloor, c.WindowCap))
	}
	ck, ok, err := LoadCheckpoint(cs, m, uint32(c.Shard), uint32(c.Shards))
	if err != nil {
		return nil, err
	}
	if ok {
		e.resumed = true
		e.seq = ck.Seq
		e.cursor = ck.Cursor
		e.nextPos = ck.Cursor
		for _, p := range ck.Done {
			if p >= ck.Cursor {
				e.done[p] = struct{}{}
			}
		}
		for _, g := range ck.Quarantined {
			e.quarantined[g] = struct{}{}
		}
		e.totalFiles = ck.FilesDone
		e.totalIn = ck.BytesIn
		e.totalOut = ck.BytesOut
		c.Logf("backfill: resumed shard %d/%d at cursor %d/%d (seq %d, %d done-ahead, %d quarantined)",
			c.Shard, c.Shards, ck.Cursor, e.shardLen, ck.Seq, len(e.done), len(e.quarantined))
	}
	return e, nil
}

// globalIndex maps a shard-local position to its manifest index.
func (e *Engine) globalIndex(pos uint64) uint64 {
	return pos*uint64(e.cfg.Shards) + uint64(e.cfg.Shard)
}

// next hands out the next pending position: requeued work first, then the
// sequential scan, held back whenever it would run more than MaxAhead past
// the cursor (bounding post-crash duplicates and the done-ahead set).
func (e *Engine) next() (item, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.retry); n > 0 {
		it := e.retry[n-1]
		e.retry = e.retry[:n-1]
		e.inflight++
		return it, true
	}
	for e.nextPos < e.shardLen && e.nextPos < e.cursor+uint64(e.cfg.MaxAhead) {
		p := e.nextPos
		e.nextPos++
		if _, ok := e.done[p]; ok || p < e.cursor {
			continue
		}
		e.inflight++
		return item{pos: p}, true
	}
	return item{}, false
}

// handledLocked marks pos complete and slides the cursor over any now-
// contiguous run of done positions.
func (e *Engine) handledLocked(pos uint64) {
	e.done[pos] = struct{}{}
	for {
		if _, ok := e.done[e.cursor]; !ok {
			break
		}
		delete(e.done, e.cursor)
		e.cursor++
	}
}

func (e *Engine) kickCheckpoint() {
	select {
	case e.ckptKick <- struct{}{}:
	default:
	}
}

// commit acknowledges one verified file.
func (e *Engine) commit(pos uint64, in, out int) {
	e.mu.Lock()
	e.inflight--
	e.handledLocked(pos)
	e.totalFiles++
	e.totalIn += uint64(in)
	e.totalOut += uint64(out)
	e.dirty++
	kick := e.dirty >= e.cfg.CheckpointFiles
	e.mu.Unlock()
	e.filesRun.Add(1)
	if kick {
		e.kickCheckpoint()
	}
}

// quarantine permanently sets a file aside: it counts as handled for the
// cursor but never as committed, and its manifest index is checkpointed so
// resumes skip it too.
func (e *Engine) quarantine(pos uint64, why error) {
	g := e.globalIndex(pos)
	e.mu.Lock()
	e.inflight--
	e.handledLocked(pos)
	e.quarantined[g] = struct{}{}
	e.dirty++
	e.mu.Unlock()
	e.cfg.Logf("backfill: quarantined file %d: %v", g, why)
}

func (e *Engine) requeue(it item) {
	e.mu.Lock()
	e.inflight--
	e.retry = append(e.retry, it)
	e.mu.Unlock()
	e.retries.Add(1)
}

func (e *Engine) finished() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cursor >= e.shardLen && len(e.retry) == 0 && e.inflight == 0
}

// snapshotLocked builds the next checkpoint record from current progress.
func (e *Engine) snapshotLocked() Checkpoint {
	c := Checkpoint{
		ManifestDigest: e.m.Digest(),
		ManifestLen:    uint64(len(e.m.Entries)),
		Shard:          uint32(e.cfg.Shard),
		Shards:         uint32(e.cfg.Shards),
		Seq:            e.seq + 1,
		Cursor:         e.cursor,
		FilesDone:      e.totalFiles,
		BytesIn:        e.totalIn,
		BytesOut:       e.totalOut,
	}
	for p := range e.done {
		c.Done = append(c.Done, p)
	}
	sort.Slice(c.Done, func(i, j int) bool { return c.Done[i] < c.Done[j] })
	for g := range e.quarantined {
		c.Quarantined = append(c.Quarantined, g)
	}
	sort.Slice(c.Quarantined, func(i, j int) bool { return c.Quarantined[i] < c.Quarantined[j] })
	return c
}

// checkpoint cuts and durably writes a progress record. Write failures are
// reported but non-fatal: the engine keeps recompressing and retries on the
// next tick — losing checkpoint freshness costs bounded duplicate work on
// the next resume, whereas stopping would cost the whole run.
func (e *Engine) checkpoint(force bool) error {
	e.mu.Lock()
	if e.dirty == 0 && !force {
		e.mu.Unlock()
		return nil
	}
	c := e.snapshotLocked()
	e.dirty = 0
	e.mu.Unlock()

	if err := SaveCheckpoint(e.cs, &c); err != nil {
		return err
	}
	e.mu.Lock()
	if c.Seq > e.seq {
		e.seq = c.Seq
	}
	e.mu.Unlock()
	e.ckpts.Add(1)
	return nil
}

// lane drives one node: admit through the pacer, pull from the dispenser,
// process concurrently up to the window.
func (e *Engine) lane(ctx context.Context, idx int) {
	p := e.pacers[idx]
	addr := e.nodes[idx]
	var inner sync.WaitGroup
	defer inner.Wait()
	for ctx.Err() == nil {
		if e.finished() {
			return
		}
		if !p.Launch() {
			sleepCtx(ctx, laneIdle)
			continue
		}
		it, ok := e.next()
		if !ok {
			p.Cancel()
			sleepCtx(ctx, laneIdle)
			continue
		}
		inner.Add(1)
		go func(it item) {
			defer inner.Done()
			e.process(ctx, addr, p, it)
		}(it)
	}
}

// process runs one file end to end against one node and classifies the
// outcome: commit, requeue (node's fault — retried forever), or quarantine
// (file's fault — after MaxAttempts, or immediately on a deterministic
// remote rejection).
func (e *Engine) process(ctx context.Context, addr string, p *Pacer, it item) {
	entry := e.m.Entries[e.globalIndex(it.pos)]
	data, err := e.src.Fetch(ctx, entry)
	if err != nil {
		p.Cancel()
		if ctx.Err() != nil {
			e.requeue(it)
			return
		}
		e.quarantine(it.pos, fmt.Errorf("source: %w", err))
		return
	}

	rto := p.RTO()
	cctx, cancel := context.WithTimeout(ctx, rto)
	start := time.Now()
	comp, err := e.t.DoNode(cctx, addr, server.OpCompress, data)
	cancel()
	elapsed := time.Since(start)

	if err != nil {
		if ctx.Err() != nil {
			// Engine shutdown, not a node verdict.
			p.Cancel()
			e.requeue(it)
			return
		}
		var re *server.RemoteError
		var se *server.StreamBodyError
		switch {
		case errors.Is(err, server.ErrPayloadTooLarge):
			// Over the protocol limit: no node will ever take it.
			p.Cancel()
			e.quarantine(it.pos, err)
		case errors.As(err, &re) && !re.Transient:
			// The node answered promptly and rejected the file for
			// good: that is a healthy node and a bad file.
			p.Done(elapsed, true)
			e.quarantine(it.pos, err)
		case errors.As(err, &re):
			// Overload pushback (StatusRetry): the node is alive but
			// shedding load — the clearest congestion signal there is.
			// Shrink the window and retry the file later.
			p.Done(0, false)
			e.requeue(it)
		case errors.As(err, &se):
			// Died mid-response — could be the file tripping the
			// server or the connection dying under it. Give the file
			// a few chances before blaming it.
			p.Done(0, false)
			it.attempts++
			if it.attempts >= e.cfg.MaxAttempts {
				e.quarantine(it.pos, err)
			} else {
				e.requeue(it)
			}
		default:
			// Timeout / connect failure / evicted node: the file was
			// never judged. Back off and retry indefinitely.
			p.Done(0, false)
			e.requeue(it)
		}
		return
	}

	if e.cfg.Verify {
		if derr := e.codec.VerifyCtx(ctx, comp, data); derr != nil {
			if ctx.Err() != nil {
				p.Cancel()
				e.requeue(it)
				return
			}
			// The exchange itself succeeded; don't punish the window.
			p.Done(elapsed, true)
			it.attempts++
			if it.attempts >= e.cfg.MaxAttempts {
				e.quarantine(it.pos, fmt.Errorf("verify: %w", derr))
			} else {
				e.requeue(it)
			}
			return
		}
	}

	p.Done(elapsed, true)
	e.commit(it.pos, len(data), len(comp))
}

// yieldLoop is the live-traffic-priority poller: per node, foreground load
// is the probed in-flight depth minus this engine's own outstanding
// requests there. Crossing YieldLow shrinks the window toward its floor;
// crossing YieldHigh pauses the lane until the node quiets down.
func (e *Engine) yieldLoop(ctx context.Context) {
	tick := time.NewTicker(e.cfg.YieldPoll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for i, addr := range e.nodes {
			pctx, cancel := context.WithTimeout(ctx, e.cfg.YieldPoll*4)
			load, err := e.t.ProbeNode(pctx, addr)
			cancel()
			if err != nil {
				continue // lane failures already pace a sick node
			}
			fg := int(load) - e.pacers[i].InFlight()
			switch {
			case fg >= e.cfg.YieldHigh:
				e.pacers[i].SetPaused(true)
				e.yieldPauses.Add(1)
				e.cfg.Logf("backfill: pausing %s (foreground in-flight %d)", addr, fg)
			case fg >= e.cfg.YieldLow:
				e.pacers[i].SetPaused(false)
				e.pacers[i].YieldShrink()
				e.yieldShrinks.Add(1)
			default:
				e.pacers[i].SetPaused(false)
			}
		}
	}
}

// checkpointLoop cuts checkpoints on the timer and on commit-count kicks.
func (e *Engine) checkpointLoop(ctx context.Context) {
	tick := time.NewTicker(e.cfg.CheckpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		case <-e.ckptKick:
		}
		if err := e.checkpoint(false); err != nil {
			e.cfg.Logf("backfill: checkpoint failed (will retry): %v", err)
		}
	}
}

// Run executes the backfill until the shard completes or ctx is cancelled,
// then cuts a final checkpoint either way. The returned Result is valid
// even when err is non-nil.
func (e *Engine) Run(ctx context.Context) (Result, error) {
	aux, stopAux := context.WithCancel(ctx)
	var auxWG sync.WaitGroup
	auxWG.Add(1)
	go func() { defer auxWG.Done(); e.checkpointLoop(aux) }()
	if e.cfg.YieldPoll > 0 {
		auxWG.Add(1)
		go func() { defer auxWG.Done(); e.yieldLoop(aux) }()
	}

	var laneWG sync.WaitGroup
	for i := range e.nodes {
		laneWG.Add(1)
		go func(i int) { defer laneWG.Done(); e.lane(ctx, i) }(i)
	}
	laneWG.Wait()
	stopAux()
	auxWG.Wait()

	if err := e.checkpoint(true); err != nil {
		e.cfg.Logf("backfill: final checkpoint failed: %v", err)
	}

	res := e.result()
	if err := ctx.Err(); err != nil && !res.Complete {
		return res, err
	}
	return res, nil
}

func (e *Engine) result() Result {
	e.mu.Lock()
	res := Result{
		Resumed:    e.resumed,
		TotalFiles: e.totalFiles,
		TotalIn:    e.totalIn,
		TotalOut:   e.totalOut,
		Complete:   e.cursor >= e.shardLen && len(e.retry) == 0 && e.inflight == 0,
	}
	for g := range e.quarantined {
		res.Quarantined = append(res.Quarantined, g)
	}
	e.mu.Unlock()
	sort.Slice(res.Quarantined, func(i, j int) bool { return res.Quarantined[i] < res.Quarantined[j] })
	res.Files = e.filesRun.Load()
	res.Retries = e.retries.Load()
	res.Checkpoints = e.ckpts.Load()
	res.YieldShrinks = e.yieldShrinks.Load()
	res.YieldPauses = e.yieldPauses.Load()
	return res
}

// Stats snapshots engine progress and per-node pacer state in the flat
// counter style the server packages use.
func (e *Engine) Stats() map[string]int64 {
	e.mu.Lock()
	snap := map[string]int64{
		"cursor":         int64(e.cursor),
		"shard_len":      int64(e.shardLen),
		"done_ahead":     int64(len(e.done)),
		"retry_queue":    int64(len(e.retry)),
		"inflight":       int64(e.inflight),
		"total_files":    int64(e.totalFiles),
		"total_in":       int64(e.totalIn),
		"total_out":      int64(e.totalOut),
		"quarantined":    int64(len(e.quarantined)),
		"checkpoint_seq": int64(e.seq),
	}
	e.mu.Unlock()
	snap["files_run"] = int64(e.filesRun.Load())
	snap["retries"] = int64(e.retries.Load())
	snap["checkpoints"] = int64(e.ckpts.Load())
	snap["yield_shrinks"] = int64(e.yieldShrinks.Load())
	snap["yield_pauses"] = int64(e.yieldPauses.Load())
	for i := range e.pacers {
		s := e.pacers[i].Stat()
		pfx := fmt.Sprintf("node%d_", i)
		snap[pfx+"window"] = int64(s.Window)
		snap[pfx+"inflight"] = int64(s.InFlight)
		snap[pfx+"srtt_us"] = s.RTT.SRTT.Microseconds()
		snap[pfx+"rto_us"] = s.RTT.RTO.Microseconds()
		if s.Paused {
			snap[pfx+"paused"] = 1
		} else {
			snap[pfx+"paused"] = 0
		}
	}
	return snap
}

// sleepCtx naps without outliving the context.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
