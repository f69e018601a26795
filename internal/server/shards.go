package server

import (
	"context"
	"sync"

	"lepton/internal/core"
	"lepton/internal/metrics"
	"lepton/internal/store"
)

// This file implements the per-core sharded worker pool that replaced the
// shared counting semaphore. Each shard owns one worker goroutine and one
// private core.Codec, and every connection is pinned to a shard
// (round-robin at accept): under steady load a connection's conversions
// always run on the same worker, so the codec's model tables, coefficient
// planes, and scratch buffers stay hot in that core's cache instead of
// migrating through a global sync.Pool. When a shard's worker is busy and
// another is idle, the idle worker steals the queued job — sharding is an
// affinity preference, not a throughput limit.
//
// Dispatch is allocation-free in steady state: the job record lives inside
// the srvConn (the protocol is strictly one request in flight per
// connection), the per-shard queues reuse their backing arrays, and
// completion is signaled by sending on a reusable buffered channel rather
// than closing one.

// jobKind selects the work a shard worker performs; the dispatch switch in
// run keeps the job record closure-free (a closure per request would
// allocate on every dispatch).
type jobKind uint8

const (
	jobFunc jobKind = iota // test hook: runs shardJob.fn
	jobCompress
	jobDecompress
	jobPutCompressed
	jobGetRange
)

// jobState tracks where a job is in its lifecycle, guarded by the pool
// mutex. The queued→running transition decides who owns cancellation: a
// job still queued can be withdrawn by its submitter; once running, the
// submitter must wait for the worker (the conversion itself aborts at its
// next context checkpoint).
type jobState uint8

const (
	jobIdle jobState = iota
	jobQueued
	jobRunning
)

// shardJob is the reusable per-connection work record. One lives inside
// each srvConn; runOnShard fills it, enqueues it, and waits.
type shardJob struct {
	b       *Blockserver
	sc      *srvConn
	kind    jobKind
	ctx     context.Context
	payload []byte
	hash    store.Hash // jobGetRange: parsed before submit, on the conn goroutine
	off, n  int64      // jobGetRange bounds, parsed with the hash

	fn func() bool // jobFunc (tests)

	state jobState
	shard int // queue the job waits in while jobQueued
	ok    bool
	done  chan struct{} // buffered(1); completion is a send, never a close
}

// run executes the job on a worker, with the worker's private codec.
func (j *shardJob) run(cd *core.Codec) bool {
	switch j.kind {
	case jobCompress:
		return j.b.compressLocal(j.ctx, cd, j.sc.conn, j.payload)
	case jobDecompress:
		return j.b.decompressLocal(j.ctx, cd, j.sc, j.payload)
	case jobPutCompressed:
		return j.b.putCompressedLocal(j.ctx, j.sc.conn, j.payload)
	case jobGetRange:
		return j.b.getRangeLocal(j.ctx, cd, j.sc, j.hash, j.off, j.n)
	case jobFunc:
		return j.fn()
	}
	return false
}

// shard is one worker's slice of the pool: a FIFO of queued jobs, the
// worker's private codec, and its counters. The queue is a slice+head ring
// so pops are O(1) and the backing array is reused once drained.
type shard struct {
	q    []*shardJob
	head int

	codec   *core.Codec
	cond    *sync.Cond // this worker's wait point (shares the pool mutex)
	waiting bool       // worker is parked on cond

	jobs   int64 // jobs this worker completed
	steals int64 // of those, jobs taken from another shard's queue
}

func (s *shard) push(j *shardJob) {
	s.q = append(s.q, j)
}

func (s *shard) pop() *shardJob {
	if s.head == len(s.q) {
		return nil
	}
	j := s.q[s.head]
	s.q[s.head] = nil
	s.head++
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	return j
}

// remove withdraws a still-queued job (submitter cancellation).
func (s *shard) remove(j *shardJob) {
	for i := s.head; i < len(s.q); i++ {
		if s.q[i] == j {
			copy(s.q[i:], s.q[i+1:])
			s.q[len(s.q)-1] = nil
			s.q = s.q[:len(s.q)-1]
			if s.head == len(s.q) {
				s.q = s.q[:0]
				s.head = 0
			}
			return
		}
	}
}

func (s *shard) depth() int { return len(s.q) - s.head }

// shardPool runs one worker goroutine per shard. A single mutex guards
// every queue — the critical sections are a few pointer moves, so
// contention is negligible next to a conversion — but each worker parks on
// its own condition variable, which is what makes affinity deterministic:
// a submitter wakes the home worker when it is idle, and only falls back
// to waking some other idle worker (which will find the job by scanning
// the other queues — a steal) when the home worker is busy.
type shardPool struct {
	mu     sync.Mutex
	shards []shard
	closed bool
	wg     sync.WaitGroup
}

// newShardPool starts n workers, each with a private codec counting into
// stats.
func newShardPool(n int, stats *metrics.Set) *shardPool {
	if n < 1 {
		n = 1
	}
	p := &shardPool{shards: make([]shard, n)}
	for i := range p.shards {
		p.shards[i].codec = core.NewCodecIn(stats)
		p.shards[i].cond = sync.NewCond(&p.mu)
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(i)
	}
	return p
}

// take pops the worker's own queue first, then scans the others in ring
// order. The bool reports whether the job came from the worker's own shard.
func (p *shardPool) take(i int) (*shardJob, bool) {
	if j := p.shards[i].pop(); j != nil {
		return j, true
	}
	n := len(p.shards)
	for k := 1; k < n; k++ {
		if j := p.shards[(i+k)%n].pop(); j != nil {
			return j, false
		}
	}
	return nil, false
}

func (p *shardPool) worker(i int) {
	defer p.wg.Done()
	s := &p.shards[i]
	p.mu.Lock()
	for {
		j, home := p.take(i)
		if j == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			s.waiting = true
			s.cond.Wait()
			s.waiting = false
			continue
		}
		j.state = jobRunning
		p.mu.Unlock()
		j.ok = j.run(s.codec)
		p.mu.Lock()
		s.jobs++
		if !home {
			s.steals++
		}
		j.state = jobIdle
		j.done <- struct{}{}
	}
}

// submit enqueues j on its preferred shard and blocks until a worker
// completes it. If ctx is cancelled while the job is still queued, the job
// is withdrawn and ctx.Err() returned; once running, the conversion's own
// context checkpoints bound the wait.
func (p *shardPool) submit(ctx context.Context, j *shardJob) error {
	s := j.shard
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return context.Canceled
	}
	j.state = jobQueued
	p.shards[s].push(j)
	// Wake the home worker when idle (affinity); otherwise any idle worker,
	// which will find the job by scanning — the work-stealing path.
	if p.shards[s].waiting {
		p.shards[s].cond.Signal()
	} else {
		for i := range p.shards {
			if p.shards[i].waiting {
				p.shards[i].cond.Signal()
				break
			}
		}
	}
	p.mu.Unlock()
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		if j.state == jobQueued {
			p.shards[s].remove(j)
			j.state = jobIdle
			p.mu.Unlock()
			return ctx.Err()
		}
		p.mu.Unlock()
		// Already running (or just finished): the worker owns the job until
		// it signals done; the conversion aborts at its next checkpoint.
		<-j.done
		return nil
	}
}

// close stops the workers after the current jobs finish. The server only
// calls it after every connection handler has unwound, so no submitter can
// be waiting and the queues are empty. Idempotent.
func (p *shardPool) close() {
	p.mu.Lock()
	p.closed = true
	for i := range p.shards {
		p.shards[i].cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// runOnShard runs one request on the connection's shard through the
// connection's embedded job record — zero allocations in steady state. The
// in-flight gauge covers the queued wait as well as the conversion, so
// load probes and the outsourcing trigger keep seeing backlog exactly as
// they did with the semaphore. The job writes its own reply (a streamed
// decode writes it during the conversion), so the gauge and the shard's
// done counter settle just after the reply is written: a reader on
// another connection may see them one update late.
func (b *Blockserver) runOnShard(ctx context.Context, sc *srvConn, kind jobKind, payload []byte) (bool, error) {
	b.inFlight.Add(1)
	defer b.inFlight.Add(-1)
	j := &sc.job
	if j.done == nil {
		j.done = make(chan struct{}, 1)
	}
	j.b = b
	j.sc = sc
	j.kind = kind
	j.ctx = ctx
	j.payload = payload
	j.shard = sc.affinity
	err := b.pool.submit(ctx, j)
	j.ctx = nil // do not pin the request context between requests
	if err != nil {
		return false, err
	}
	return j.ok, nil
}
