package server

import (
	"context"
	"sync"

	"lepton/internal/core"
	"lepton/internal/metrics"
	"lepton/internal/store"
)

// This file implements the blockserver's worker pool: a fixed set of
// workers drains one FIFO of jobs, and each worker owns a private
// core.Codec. Production ran one Lepton process per core, each with a
// private working set (§5.1); here a conversion's pooled buffers likewise
// belong to one worker and are never recycled under a conversion still
// streaming from them. Jobs start in arrival order, on whichever worker
// frees up first.
//
// Dispatch is allocation-free in steady state: the job record lives inside
// the srvConn (the protocol is strictly one request in flight per
// connection), the queue reuses its backing array, and completion is
// signaled by sending on a reusable buffered channel rather than closing
// one.

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
	op      byte // the wire op served; 0 runs fn (tests)
	ctx     context.Context
	payload []byte
	hash    store.Hash // OpGetRange: parsed before submit, on the conn goroutine
	off, n  int64      // OpGetRange bounds, parsed with the hash

	fn func() bool

	state jobState
	ok    bool
	done  chan struct{} // buffered(1); completion is a send, never a close
}

// run executes the job on a worker, with the worker's private codec. The
// switch keeps the job record closure-free: a closure per request would
// allocate on every dispatch.
func (j *shardJob) run(cd *core.Codec) bool {
	switch j.op {
	case OpCompress, OpCompressLocal:
		return j.b.compressLocal(j.ctx, cd, j.sc.conn, j.payload)
	case OpDecompress:
		return j.b.decompressLocal(j.ctx, cd, j.sc, j.payload)
	case OpPutChunkCompressed:
		return j.b.putCompressedLocal(j.ctx, j.sc.conn, j.payload)
	case OpGetRange:
		return j.b.getRangeLocal(j.ctx, cd, j.sc, j.hash, j.off, j.n)
	}
	return j.fn()
}

// workerPool runs a fixed set of workers over one FIFO. The mutex guards
// the queue, the counters and every job's state; one condition variable,
// signalled once per queued job, wakes an idle worker. A worker that
// finishes a job takes the next one before it waits, so a queued job never
// waits while a worker is free.
type workerPool struct {
	mu      sync.Mutex
	wake    sync.Cond
	q       []*shardJob // q[head:] is queued, oldest first
	head    int
	workers int
	done    int64 // jobs completed
	closed  bool
	wg      sync.WaitGroup
}

// newWorkerPool starts n workers, each with a private codec counting into
// stats.
func newWorkerPool(n int, stats *metrics.Set) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{workers: n}
	p.wake.L = &p.mu
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(core.NewCodecIn(stats))
	}
	return p
}

func (p *workerPool) depth() int { return len(p.q) - p.head }

// pop takes the oldest queued job, or nil. Once the queue drains, its
// backing array is reused from the start.
func (p *workerPool) pop() *shardJob {
	if p.depth() == 0 {
		return nil
	}
	j := p.q[p.head]
	p.q[p.head] = nil
	p.head++
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	}
	return j
}

// remove withdraws a still-queued job (submitter cancellation).
func (p *workerPool) remove(j *shardJob) {
	for i := p.head; i < len(p.q); i++ {
		if p.q[i] == j {
			copy(p.q[i:], p.q[i+1:])
			p.q[len(p.q)-1] = nil
			p.q = p.q[:len(p.q)-1]
			if p.head == len(p.q) {
				p.q = p.q[:0]
				p.head = 0
			}
			return
		}
	}
}

func (p *workerPool) worker(cd *core.Codec) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		j := p.pop()
		if j == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.wake.Wait()
			continue
		}
		j.state = jobRunning
		p.mu.Unlock()
		j.ok = j.run(cd)
		p.mu.Lock()
		p.done++
		j.state = jobIdle
		j.done <- struct{}{}
	}
}

// submit queues j and blocks until a worker completes it. If ctx is
// cancelled while the job is still queued, the job is withdrawn and
// ctx.Err() returned; once running, the conversion's own context
// checkpoints bound the wait.
func (p *workerPool) submit(ctx context.Context, j *shardJob) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return context.Canceled
	}
	j.state = jobQueued
	p.q = append(p.q, j)
	p.wake.Signal()
	p.mu.Unlock()
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		if j.state == jobQueued {
			p.remove(j)
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
// be waiting and the queue is empty. Idempotent.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// runOnShard runs one request on a worker through the connection's
// embedded job record — zero allocations in steady state — and answers a
// cancelled queue wait in-band. The in-flight gauge covers the queued wait
// as well as the conversion, so load probes and the outsourcing trigger
// see the backlog. The job writes its own reply (a streamed decode writes
// it during the conversion), so the gauge and the pool's done counter
// settle just after the reply is written: a reader on another connection
// may see them one update late.
func (b *Blockserver) runOnShard(ctx context.Context, sc *srvConn, op byte, payload []byte) bool {
	b.inFlight.Add(1)
	defer b.inFlight.Add(-1)
	j := &sc.job
	if j.done == nil {
		j.done = make(chan struct{}, 1)
	}
	j.b = b
	j.sc = sc
	j.op = op
	j.ctx = ctx
	j.payload = payload
	err := b.pool.submit(ctx, j)
	j.ctx = nil // do not pin the request context between requests
	if err != nil {
		return b.respondErr(sc.conn, err)
	}
	return j.ok
}
