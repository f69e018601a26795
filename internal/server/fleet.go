// Fleet is the client-side router over a set of live blockservers: the
// piece that turns one server plus a simulator into a deployable
// multi-node system. It keeps a small pool of persistent Clients per node,
// picks targets by the power of two random choices using real Load probes
// (probed concurrently under one shared context, §5.5), retries transport
// failures on a different node with the failed node excluded, hedges a
// second request onto another node after a configurable latency threshold
// (first response wins, the loser is cancelled through its context), and
// runs a health loop that evicts unreachable nodes and re-admits them once
// probes succeed again. Clients route with it, and an oversubscribed
// Blockserver outsources compressions through one (Blockserver.Outsource).
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lepton/internal/metrics"
	"lepton/internal/store"
)

// Fleet routing defaults.
const (
	// DefaultProbeTimeout bounds one target-selection probe round. Probes
	// are cheap OpLoad exchanges on pooled connections; a peer that cannot
	// answer within this budget is treated as unreachable.
	DefaultProbeTimeout = 250 * time.Millisecond
	// DefaultDialTimeout bounds establishing a new connection to a node.
	DefaultDialTimeout = 2 * time.Second
	// DefaultHealthInterval is how often the health loop probes every node.
	DefaultHealthInterval = 500 * time.Millisecond
	// DefaultMaxIdlePerNode caps the per-node pool of idle persistent
	// connections.
	DefaultMaxIdlePerNode = 4
)

// ErrNoNodes is returned when every fleet node is excluded or unreachable.
var ErrNoNodes = errors.New("server: fleet has no reachable nodes")

// ErrNodeDown is returned (wrapped) by DoNode when the addressed node is
// currently evicted; placement-routed callers skip to the next replica.
var ErrNodeDown = errors.New("server: fleet node is down")

// FleetOptions tunes a Fleet. The zero value selects the defaults above,
// with hedging disabled. New connections are bounded by DefaultDialTimeout
// and each node keeps at most DefaultMaxIdlePerNode idle ones.
type FleetOptions struct {
	// ProbeTimeout bounds one power-of-two probe round (both candidates
	// share it); 0 means DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// HedgeAfter, when positive, launches a second copy of a request on a
	// different node if the first has not answered within this duration;
	// the first response wins and the loser is cancelled.
	HedgeAfter time.Duration
	// HealthInterval is the eviction/re-admission probe period; 0 means
	// DefaultHealthInterval, negative disables the loop. With the loop
	// disabled, an evicted node is re-admitted only when it answers a probe
	// or serves a request: through ProbeNode, or through routed traffic
	// once no healthy node remains.
	HealthInterval time.Duration
	// Seed fixes the candidate-selection rng for reproducible tests; 0
	// seeds from the clock.
	Seed int64
	// Logf, when set, receives routing diagnostics.
	Logf func(format string, args ...any)
}

// fleetNode is one blockserver as the router sees it: an address, a pool of
// idle persistent clients, and a health flag.
type fleetNode struct {
	addr string

	mu   sync.Mutex
	idle []*Client
	down bool
	// healthFails counts consecutive failed health-loop probes; the loop
	// evicts only after healthEvictAfter of them, because one missed probe
	// deadline can mean saturation rather than death (see pick).
	healthFails int

	// rtt is the probe RTT EWMA: fed by every successful OpLoad probe
	// (target selection, health loop, ProbeNode), exported through
	// StatsSnapshot (node<i>_srtt_us, _rto_us, _rtt_samples). Request
	// exchanges do not feed it — a conversion's latency measures the
	// payload, not the wire.
	rtt RTTEstimator
	// evictions names the router counter of how many times this node
	// specifically was evicted (node<i>_evictions).
	evictions string
}

func (n *fleetNode) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// Fleet routes requests across a fixed set of blockservers. Safe for
// concurrent use.
type Fleet struct {
	opts   FleetOptions
	nodes  []*fleetNode
	byAddr map[string]*fleetNode

	rngMu sync.Mutex
	rng   *rand.Rand

	stats *metrics.Set

	stopOnce sync.Once
	stopCh   chan struct{}
	healthWG sync.WaitGroup
	closed   atomic.Bool
}

// NewFleet builds a router over addrs ("tcp:<host:port>" or
// "unix:<path>"), deduplicated, and starts the health loop. opts may be
// nil. Callers own Close.
func NewFleet(addrs []string, opts *FleetOptions) (*Fleet, error) {
	f := &Fleet{byAddr: map[string]*fleetNode{}, stopCh: make(chan struct{}),
		stats: metrics.New(nil, "requests", "retries", "hedged", "hedge_wins", "evictions",
			"readmissions", "probe_failures", "dial_failures")}
	if opts != nil {
		f.opts = *opts
	}
	if f.opts.ProbeTimeout <= 0 {
		f.opts.ProbeTimeout = DefaultProbeTimeout
	}
	seed := f.opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	f.rng = rand.New(rand.NewSource(seed))
	for _, addr := range addrs {
		if _, _, err := splitAddr(addr); err != nil {
			return nil, fmt.Errorf("fleet node %q: %w", addr, err)
		}
		if _, dup := f.byAddr[addr]; dup {
			continue
		}
		n := &fleetNode{addr: addr, evictions: fmt.Sprintf("node%d_evictions", len(f.nodes))}
		f.stats.Add(n.evictions, 0)
		f.nodes = append(f.nodes, n)
		f.byAddr[addr] = n
	}
	if len(f.nodes) == 0 {
		return nil, errors.New("server: fleet needs at least one node")
	}
	interval := f.opts.HealthInterval
	if interval == 0 {
		interval = DefaultHealthInterval
	}
	if interval > 0 {
		f.healthWG.Add(1)
		go f.healthLoop(interval)
	}
	return f, nil
}

func (f *Fleet) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Nodes returns every configured node address, up or down.
func (f *Fleet) Nodes() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.addr
	}
	return out
}

// NodeDown reports whether addr is currently evicted.
func (f *Fleet) NodeDown(addr string) bool {
	n, ok := f.byAddr[addr]
	return ok && n.isDown()
}

// StatsSnapshot returns a point-in-time view of the router's counters plus
// the current up/down node split and each node's RTT estimate, mirroring
// Blockserver.StatsSnapshot. Each node's health flag is read once, so
// nodes_up + nodes_down is the node count and nodes_down is the sum of
// the node<i>_down flags even while a node is being evicted.
func (f *Fleet) StatsSnapshot() map[string]int64 {
	snap := f.stats.Snapshot()
	var down int64
	for i, n := range f.nodes {
		st := n.rtt.Stat()
		snap[fmt.Sprintf("node%d_srtt_us", i)] = st.SRTT.Microseconds()
		snap[fmt.Sprintf("node%d_rttvar_us", i)] = st.RTTVar.Microseconds()
		snap[fmt.Sprintf("node%d_rto_us", i)] = st.RTO.Microseconds()
		snap[fmt.Sprintf("node%d_rtt_samples", i)] = st.Samples
		var downFlag int64
		if n.isDown() {
			downFlag = 1
		}
		down += downFlag
		snap[fmt.Sprintf("node%d_down", i)] = downFlag
	}
	snap["nodes_up"] = int64(len(f.nodes)) - down
	snap["nodes_down"] = down
	return snap
}

// --- per-node connection pool --------------------------------------------

// getClient pops an idle persistent client or dials a fresh one; fresh
// skips the pool entirely, so a retry after a stale pooled connection
// cannot just pop the next stale one. fromPool tells the caller whether a
// transport failure might mean the pooled connection went stale (worth one
// fresh redial) rather than the node being dead.
func (f *Fleet) getClient(ctx context.Context, n *fleetNode, fresh bool) (c *Client, fromPool bool, err error) {
	if !fresh {
		n.mu.Lock()
		if k := len(n.idle); k > 0 {
			c = n.idle[k-1]
			n.idle = n.idle[:k-1]
			n.mu.Unlock()
			return c, true, nil
		}
		n.mu.Unlock()
	}
	dctx, cancel := context.WithTimeout(ctx, DefaultDialTimeout)
	defer cancel()
	c, err = DialContext(dctx, n.addr)
	if err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// putClient returns a healthy client to the node's idle pool, or closes it
// when the pool is full or the node was evicted meanwhile.
func (f *Fleet) putClient(n *fleetNode, c *Client) {
	n.mu.Lock()
	if !n.down && len(n.idle) < DefaultMaxIdlePerNode && !f.closed.Load() {
		n.idle = append(n.idle, c)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	_ = c.Close()
}

// evict marks a node down and drops its pooled connections. Idempotent.
func (f *Fleet) evict(n *fleetNode, why string) {
	n.mu.Lock()
	already := n.down
	n.down = true
	// Counted before the unlock publishes the state: a reader that sees
	// the node down also sees its eviction.
	if !already {
		f.stats.Add("evictions", 1)
		f.stats.Add(n.evictions, 1)
	}
	idle := n.idle
	n.idle = nil
	n.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
	if !already {
		f.logf("fleet: evicted %s (%s)", n.addr, why)
	}
}

// readmit marks a node healthy again and clears its probe-failure streak.
// Idempotent.
func (f *Fleet) readmit(n *fleetNode) {
	n.mu.Lock()
	was := n.down
	n.down = false
	n.healthFails = 0
	if was {
		f.stats.Add("readmissions", 1) // before the unlock, as in evict
	}
	n.mu.Unlock()
	if was {
		f.logf("fleet: readmitted %s", n.addr)
	}
}

// --- probing and target selection ----------------------------------------

// probe asks a node for its in-flight load on a pooled connection, redialing
// once if the pooled connection had gone stale.
func (f *Fleet) probe(ctx context.Context, n *fleetNode) (uint32, error) {
	for attempt := 0; ; attempt++ {
		c, fromPool, err := f.getClient(ctx, n, attempt > 0)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		load, err := c.Load(ctx)
		if err == nil {
			n.rtt.Observe(time.Since(start))
			// A node that answers is alive, whatever the health loop last
			// concluded; readmitting here (before pooling the client, which
			// a down node would refuse) keeps DoNode usable even when the
			// loop is disabled (HealthInterval < 0).
			f.readmit(n)
			f.putClient(n, c)
			return load, nil
		}
		_ = c.Close()
		if fromPool && attempt == 0 && ctx.Err() == nil {
			continue // stale pooled connection; one fresh dial decides
		}
		return 0, err
	}
}

// probePair probes two candidates concurrently under one shared context —
// the whole pair, not each probe, pays at most the context's deadline —
// and picks the less loaded: it returns the winning index (0 or 1), or -1
// when both probes fail, plus each probe's error for the caller's
// accounting. Shared by Fleet.pick and Fleet.outsource, the two
// power-of-two-choices selectors.
func probePair(ctx context.Context, probe func(ctx context.Context, i int) (uint32, error)) (int, [2]error) {
	type res struct {
		load uint32
		err  error
	}
	var ch [2]chan res
	for i := range ch {
		ch[i] = make(chan res, 1)
		go func(i int) {
			l, err := probe(ctx, i)
			ch[i] <- res{l, err}
		}(i)
	}
	r0, r1 := <-ch[0], <-ch[1]
	errs := [2]error{r0.err, r1.err}
	switch {
	case r0.err != nil && r1.err != nil:
		return -1, errs
	case r0.err != nil:
		return 1, errs
	case r1.err != nil:
		return 0, errs
	case r1.load < r0.load:
		return 1, errs
	default:
		return 0, errs
	}
}

// twoRandom picks two distinct candidate indices (or twice the same when
// only one candidate remains).
func (f *Fleet) twoRandom(n int) (int, int) {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	i := f.rng.Intn(n)
	if n == 1 {
		return i, i
	}
	j := f.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// pick selects a target by the power of two random choices over the nodes
// not excluded: both candidates are probed concurrently under one shared
// ProbeTimeout context and the less loaded wins. A failed probe only
// deprioritizes its candidate for this selection — under heavy load a
// saturated (but alive) node can miss the probe deadline, and evicting on
// that signal lets one overloaded moment take the whole fleet out; actual
// eviction is reserved for dial/transport failures and the health loop.
// When every healthy node is excluded, down nodes get a chance (they may
// have recovered before the health loop noticed), and when probing
// eliminated everyone, the last probe-failed candidate is returned
// unprobed: attempting the request beats failing it, since a genuinely
// dead node fails fast and the retry loop moves on.
func (f *Fleet) pick(ctx context.Context, exclude map[*fleetNode]bool) (*fleetNode, error) {
	local := make(map[*fleetNode]bool)
	var lastResort *fleetNode
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var cands []*fleetNode
		for _, n := range f.nodes {
			if !exclude[n] && !local[n] && !n.isDown() {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			for _, n := range f.nodes {
				if !exclude[n] && !local[n] {
					cands = append(cands, n)
				}
			}
		}
		if len(cands) == 0 {
			if lastResort != nil {
				return lastResort, nil
			}
			return nil, ErrNoNodes
		}
		if len(cands) == 1 {
			return cands[0], nil
		}
		i, j := f.twoRandom(len(cands))
		pair := [2]*fleetNode{cands[i], cands[j]}
		pctx, cancel := context.WithTimeout(ctx, f.opts.ProbeTimeout)
		win, errs := probePair(pctx, func(ctx context.Context, k int) (uint32, error) {
			return f.probe(ctx, pair[k])
		})
		cancel()
		if err := ctx.Err(); err != nil {
			// The caller's context was cancelled (a lost hedge, a dead
			// client): the probe failures say nothing about the nodes.
			return nil, err
		}
		for k, err := range errs {
			if err != nil {
				f.stats.Add("probe_failures", 1)
				local[pair[k]] = true
				lastResort = pair[k]
			}
		}
		if win < 0 {
			continue // neither answered; re-pick among the rest
		}
		return pair[win], nil
	}
}

// outsource sends one compression to the less loaded of two random nodes
// as OpCompressLocal, so the receiver never forwards it again. Unlike pick
// there is no last resort: only a node that answered its load probe within
// ProbeTimeout in this selection is used, because the calling blockserver
// can always compress locally and a hung node must cost it one probe
// timeout, not the whole request. One attempt, no retry or hedge;
// ErrNoNodes means no candidate answered.
func (f *Fleet) outsource(ctx context.Context, payload []byte) ([]byte, error) {
	var cands []*fleetNode
	for _, n := range f.nodes {
		if !n.isDown() {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		cands = f.nodes // evicted nodes may have recovered; the probe decides
	}
	i, j := f.twoRandom(len(cands))
	pair := [2]*fleetNode{cands[i], cands[j]}
	pctx, cancel := context.WithTimeout(ctx, f.opts.ProbeTimeout)
	var win int
	var errs [2]error
	if i == j {
		// One candidate: a single probe decides.
		if _, errs[0] = f.probe(pctx, pair[0]); errs[0] != nil {
			win = -1
		}
	} else {
		win, errs = probePair(pctx, func(ctx context.Context, k int) (uint32, error) {
			return f.probe(ctx, pair[k])
		})
	}
	cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			f.stats.Add("probe_failures", 1)
		}
	}
	if win < 0 {
		return nil, ErrNoNodes
	}
	f.stats.Add("requests", 1)
	resp, err := f.try(ctx, pair[win], OpCompressLocal, payload)
	if err != nil {
		return nil, fmt.Errorf("outsource to %s: %w", pair[win].addr, err)
	}
	return resp, nil
}

// --- request execution ----------------------------------------------------

// try performs one exchange against one node. Remote (StatusError) failures
// keep the connection pooled and are returned as *RemoteError; transport
// failures close the connection, evict the node (unless our own context
// caused them), and are worth retrying elsewhere. A stale pooled connection
// gets one same-node redial before the node is blamed: every protocol op is
// idempotent (conversions are pure, store puts are content-addressed), so
// the repeat is safe.
func (f *Fleet) try(ctx context.Context, n *fleetNode, op byte, payload []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		c, fromPool, err := f.getClient(ctx, n, attempt > 0)
		if err != nil {
			if ctx.Err() == nil {
				f.stats.Add("dial_failures", 1)
				f.evict(n, fmt.Sprintf("dial: %v", err))
			}
			return nil, err
		}
		resp, err := c.DoCtx(ctx, op, payload)
		if err == nil {
			f.readmit(n) // it served: alive even if marked down meanwhile
			f.putClient(n, c)
			return resp, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			f.readmit(n)
			f.putClient(n, c)
			return nil, err
		}
		_ = c.Close()
		var sbe *StreamBodyError
		if errors.As(err, &sbe) {
			// A response that died mid-body proves the node alive and the
			// connection fresh (it framed this response): no same-node
			// redial — the repeat conversion would fail identically — and
			// no eviction, or one poisoned payload would take the fleet
			// out node by node as it is retried.
			return nil, err
		}
		if fromPool && attempt == 0 && ctx.Err() == nil {
			continue
		}
		if ctx.Err() == nil {
			f.evict(n, fmt.Sprintf("%v", err))
		}
		return nil, err
	}
}

// tryHedged runs one routed attempt with optional hedging: if the primary
// node has not answered within HedgeAfter, the same request is launched on
// a second node and the first response wins; the loser's context is
// cancelled so its conversion aborts server-side at the next checkpoint.
// Nodes that failed are recorded in exclude so the caller's retry loop
// skips them.
func (f *Fleet) tryHedged(ctx context.Context, primary *fleetNode, op byte, payload []byte, exclude map[*fleetNode]bool) ([]byte, error) {
	type result struct {
		resp  []byte
		err   error
		n     *fleetNode
		hedge bool
	}
	ch := make(chan result, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() {
		resp, err := f.try(pctx, primary, op, payload)
		ch <- result{resp, err, primary, false}
	}()

	var timerC <-chan time.Time
	if f.opts.HedgeAfter > 0 && len(f.nodes) > 1 {
		timer := time.NewTimer(f.opts.HedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}
	var cancels []context.CancelFunc
	cancelAll := func() {
		for _, c := range cancels {
			c()
		}
	}
	defer cancelAll()

	inFlight := 1
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timerC:
			timerC = nil
			// Pick and launch the hedge off the event loop: pick probes
			// candidates (each round bounded by ProbeTimeout), and running
			// it here would delay delivering a primary response that has
			// already landed in ch. The exclude set is copied synchronously
			// — the loop keeps writing it as results arrive.
			hx := map[*fleetNode]bool{primary: true}
			for n := range exclude {
				hx[n] = true
			}
			hctx, hcancel := context.WithCancel(ctx)
			cancels = append(cancels, hcancel)
			inFlight++
			go func() {
				n2, err := f.pick(hctx, hx)
				if err != nil {
					// Nowhere to hedge; a nil node tells the loop this slot
					// produced no verdict on any node.
					ch <- result{nil, err, nil, true}
					return
				}
				f.stats.Add("hedged", 1)
				resp, err := f.try(hctx, n2, op, payload)
				ch <- result{resp, err, n2, true}
			}()
		case r := <-ch:
			inFlight--
			if r.n == nil {
				// The hedge was abandoned before reaching a node (no
				// candidate, or cancelled); it says nothing about the
				// request — keep waiting on whatever is still in flight.
				if inFlight == 0 {
					if firstErr == nil {
						firstErr = r.err
					}
					return nil, firstErr
				}
				continue
			}
			if r.err == nil {
				if r.hedge {
					f.stats.Add("hedge_wins", 1)
				}
				// Cancel the loser; its client tears down and the server
				// aborts the duplicate conversion at its next checkpoint.
				pcancel()
				cancelAll()
				return r.resp, nil
			}
			var re *RemoteError
			if errors.As(r.err, &re) && !re.Transient {
				// Deterministic in-band rejection: the other copy would be
				// rejected identically, so don't wait for it (or let it
				// burn a worker slot to completion). A transient decline
				// (StatusRetry) falls through: another node may serve it.
				pcancel()
				cancelAll()
				return nil, r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if ctx.Err() == nil {
				exclude[r.n] = true
			}
			if inFlight == 0 {
				// Nothing left in flight (and no point arming a hedge for a
				// request that already failed): report the failure and let
				// the caller's retry loop re-route.
				return nil, firstErr
			}
		}
	}
}

// Do routes one request through the fleet: pick a node by loaded-probe
// power-of-two choices, hedge if configured, and retry transport failures
// and node-local declines (StatusRetry: per-request timeouts, drain
// force-cancels) on different nodes, one attempt per node at most.
// Deterministic rejections (StatusError) are returned immediately — the
// server rejected the payload itself, so another node would too.
func (f *Fleet) Do(ctx context.Context, op byte, payload []byte) ([]byte, error) {
	if f.closed.Load() {
		return nil, errors.New("server: fleet is closed")
	}
	if err := checkPayloadSize(payload); err != nil {
		return nil, err
	}
	f.stats.Add("requests", 1)
	exclude := make(map[*fleetNode]bool)
	var lastErr error
	for attempt := 0; attempt < len(f.nodes); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := f.pick(ctx, exclude)
		if err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		if attempt > 0 {
			f.stats.Add("retries", 1)
		}
		resp, err := f.tryHedged(ctx, n, op, payload, exclude)
		if err == nil {
			return resp, nil
		}
		var re *RemoteError
		if errors.As(err, &re) && !re.Transient {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctxOr(ctx, err)
		}
		lastErr = err
		exclude[n] = true
	}
	return nil, lastErr
}

// DoNode performs one exchange against a specific node, bypassing load
// routing — the placement-addressed path store.Remote uses. A node
// currently evicted fails fast with ErrNodeDown (wrapped) so replicated
// callers move on to the next replica.
func (f *Fleet) DoNode(ctx context.Context, addr string, op byte, payload []byte) ([]byte, error) {
	if f.closed.Load() {
		return nil, errors.New("server: fleet is closed")
	}
	if err := checkPayloadSize(payload); err != nil {
		return nil, err
	}
	n, ok := f.byAddr[addr]
	if !ok {
		return nil, fmt.Errorf("server: %q is not a fleet node", addr)
	}
	if n.isDown() {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, addr)
	}
	return f.try(ctx, n, op, payload)
}

// ProbeNode asks one node for its in-flight load on a pooled connection —
// the live-traffic-priority signal the backfill engine polls — updating the
// node's probe RTT estimate as a side effect. A node that answers is
// readmitted if it had been evicted.
func (f *Fleet) ProbeNode(ctx context.Context, addr string) (uint32, error) {
	if f.closed.Load() {
		return 0, errors.New("server: fleet is closed")
	}
	n, ok := f.byAddr[addr]
	if !ok {
		return 0, fmt.Errorf("server: %q is not a fleet node", addr)
	}
	return f.probe(ctx, n)
}

// Compress routes one whole-file compression through the fleet.
func (f *Fleet) Compress(ctx context.Context, data []byte) ([]byte, error) {
	return f.Do(ctx, OpCompress, data)
}

// Decompress routes one container reconstruction through the fleet.
func (f *Fleet) Decompress(ctx context.Context, comp []byte) ([]byte, error) {
	return f.Do(ctx, OpDecompress, comp)
}

// --- health loop ----------------------------------------------------------

func (f *Fleet) healthLoop(interval time.Duration) {
	defer f.healthWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
			f.healthCheck(context.Background())
		}
	}
}

// healthEvictAfter is how many consecutive health probes a node may fail
// before the loop evicts it. A single missed deadline often means the node
// (or this host) is saturated, not dead — evicting the whole fleet on one
// slow tick would drop every pooled connection exactly when load peaks —
// while genuinely dead nodes are usually evicted sooner anyway by a
// request's dial/transport failure.
const healthEvictAfter = 2

// healthCheck probes every node once, concurrently: healthy nodes are
// evicted after healthEvictAfter consecutive failed probes, evicted nodes
// that answer are re-admitted. The health loop calls it on every tick.
func (f *Fleet) healthCheck(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range f.nodes {
		wg.Add(1)
		go func(n *fleetNode) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, f.opts.ProbeTimeout)
			defer cancel()
			_, err := f.probe(pctx, n)
			switch {
			case err == nil:
				f.readmit(n) // also clears the failure streak
			case ctx.Err() != nil:
				// The caller's context expired; no verdict on the node.
			default:
				f.stats.Add("probe_failures", 1)
				n.mu.Lock()
				n.healthFails++
				fails := n.healthFails
				n.mu.Unlock()
				if fails >= healthEvictAfter {
					f.evict(n, fmt.Sprintf("%d health probes: %v", fails, err))
				}
			}
		}(n)
	}
	wg.Wait()
}

// Close stops the health loop and closes every pooled connection. In-flight
// requests finish (their clients are simply not returned to the pools).
func (f *Fleet) Close() error {
	f.stopOnce.Do(func() {
		f.closed.Store(true)
		close(f.stopCh)
	})
	f.healthWG.Wait()
	for _, n := range f.nodes {
		n.mu.Lock()
		idle := n.idle
		n.idle = nil
		n.mu.Unlock()
		for _, c := range idle {
			_ = c.Close()
		}
	}
	return nil
}

// --- store transport adapter ---------------------------------------------

// PutCompressed uploads one already-compressed chunk to a specific node and
// returns its content hash; with GetCompressed it implements
// store.RemoteTransport, so a store.Remote can place replicas through the
// fleet's pooled, health-checked connections.
func (f *Fleet) PutCompressed(ctx context.Context, addr string, compressed []byte) (store.Hash, error) {
	resp, err := f.DoNode(ctx, addr, OpPutChunkCompressed, compressed)
	if err != nil {
		return store.Hash{}, err
	}
	var h store.Hash
	if len(resp) != len(h) {
		return store.Hash{}, fmt.Errorf("server: put returned %d-byte hash", len(resp))
	}
	copy(h[:], resp)
	return h, nil
}

// GetCompressed fetches one chunk's stored compressed bytes from a specific
// node. A node that answered StatusNotFound comes back as
// store.ErrRemoteMiss (wrapped) so the replicated reader can distinguish
// "not there" (read-repairable) from "unreachable" or otherwise failing
// (which may still hold the chunk — e.g. a node running without a store
// must not be flooded with futile repair writes).
func (f *Fleet) GetCompressed(ctx context.Context, addr string, h store.Hash) ([]byte, error) {
	resp, err := f.DoNode(ctx, addr, OpGetChunkCompressed, h[:])
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) && re.NotFound {
			return nil, fmt.Errorf("%w: %s", store.ErrRemoteMiss, addr)
		}
		return nil, err
	}
	return resp, nil
}

// GetRange fetches bytes [off, off+n) of the reconstruction of the chunk
// stored under h from a specific node via OpGetRange — the
// placement-addressed read store.Remote range reads use. The node decodes
// only the arithmetic segments the range touches when the chunk carries a
// seek index. A node that answered StatusNotFound comes back as
// store.ErrRemoteMiss (wrapped), like GetCompressed, so replicated readers
// move on to the next replica.
func (f *Fleet) GetRange(ctx context.Context, addr string, h store.Hash, off, n int64) ([]byte, error) {
	req, err := encodeGetRange(h, off, n)
	if err != nil {
		return nil, err
	}
	resp, err := f.DoNode(ctx, addr, OpGetRange, req)
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) && re.NotFound {
			return nil, fmt.Errorf("%w: %s", store.ErrRemoteMiss, addr)
		}
		return nil, err
	}
	return resp, nil
}

// ListChunks pages through one node's stored chunk hashes via OpListChunks
// (exclusive-start cursor, ascending), implementing store.ChunkLister — the
// capability behind warm-restart re-announce and anti-entropy sweeps.
func (f *Fleet) ListChunks(ctx context.Context, addr string, after store.Hash, max int) ([]store.Hash, error) {
	if max <= 0 || max > ListChunksPageMax {
		max = ListChunksPageMax
	}
	req := make([]byte, 36)
	copy(req, after[:])
	binary.LittleEndian.PutUint32(req[32:], uint32(max))
	resp, err := f.DoNode(ctx, addr, OpListChunks, req)
	if err != nil {
		return nil, err
	}
	if len(resp)%32 != 0 {
		return nil, fmt.Errorf("server: list-chunks response of %d bytes is not hash-aligned", len(resp))
	}
	hashes := make([]store.Hash, len(resp)/32)
	for i := range hashes {
		copy(hashes[i][:], resp[i*32:])
	}
	return hashes, nil
}

var (
	_ store.RemoteTransport = (*Fleet)(nil)
	_ store.ChunkLister     = (*Fleet)(nil)
	_ store.RangeTransport  = (*Fleet)(nil)
)
