package store

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"lepton/internal/core"
)

// AlarmKind classifies the pages the Lepton team received in production
// (§5.7, §6.6, §6.7).
type AlarmKind int

const (
	// AlarmDecodeFailure: a stored chunk could not be decompressed — the
	// never-triggered nightmare case ("we have never been unable to decode
	// a stored file").
	AlarmDecodeFailure AlarmKind = iota
	// AlarmRequalificationFailure: a chunk that round-tripped at admission
	// later failed a re-verification (§5.7's automated search; four pages
	// in the paper's first year).
	AlarmRequalificationFailure
	// AlarmCrossCheckMismatch: streaming and buffered decoders disagreed
	// (§6.7 second alarm).
	AlarmCrossCheckMismatch
	// AlarmTimeoutExhausted: a chunk failed the §6.6 isolated-recheck
	// pipeline after repeated timeouts.
	AlarmTimeoutExhausted
)

// String labels the alarm.
func (k AlarmKind) String() string {
	switch k {
	case AlarmDecodeFailure:
		return "decode failure"
	case AlarmRequalificationFailure:
		return "requalification failure"
	case AlarmCrossCheckMismatch:
		return "cross-check mismatch"
	case AlarmTimeoutExhausted:
		return "timeout recheck exhausted"
	}
	return "unknown"
}

// Alarm is one page to the on-call engineer, with the failing data saved
// for forensics (as production did).
type Alarm struct {
	Kind   AlarmKind
	Chunk  Hash
	Detail string
	// SavedData is the compressed chunk preserved for investigation.
	SavedData []byte
}

// Pager collects alarms. Production paged a human; tests inspect the queue.
type Pager struct {
	mu     sync.Mutex
	alarms []Alarm
}

// Page files an alarm.
func (p *Pager) Page(a Alarm) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.alarms = append(p.alarms, a)
}

// Alarms returns a snapshot of filed alarms.
func (p *Pager) Alarms() []Alarm {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Alarm(nil), p.alarms...)
}

// TimeoutQueue implements §6.6: with thousands of servers, some decodes
// time out on unhealthy machines (swapping, overheating, broken). Such
// chunks are queued and re-verified on an isolated, healthy cluster with no
// timeout — three consecutive successful decodes with each decoder build
// delete the chunk from the queue; any failure pages a human.
type TimeoutQueue struct {
	mu      sync.Mutex
	pending map[Hash][]byte // compressed chunk bytes
	pager   *Pager

	Rechecks int // successful decodes required (paper: 3)
}

// NewTimeoutQueue builds a queue that pages into p.
func NewTimeoutQueue(p *Pager) *TimeoutQueue {
	return &TimeoutQueue{pending: map[Hash][]byte{}, pager: p, Rechecks: 3}
}

// ReportTimeout enqueues a chunk whose decode exceeded the serving
// timeout.
func (q *TimeoutQueue) ReportTimeout(h Hash, compressed []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.pending[h]; !ok {
		q.pending[h] = append([]byte(nil), compressed...)
	}
}

// Pending returns the number of queued chunks.
func (q *TimeoutQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Drain re-verifies every queued chunk on the "healthy cluster" (this
// process, no timeout): Rechecks consecutive decodes through the buffered
// path and the streaming path must succeed and agree. Verified chunks are
// removed; failures page. Returns (verified, failed).
func (q *TimeoutQueue) Drain() (verified, failed int) {
	q.mu.Lock()
	items := make(map[Hash][]byte, len(q.pending))
	for h, b := range q.pending {
		items[h] = b
	}
	q.mu.Unlock()

	codec := core.NewCodec()
	for h, comp := range items {
		ok := true
		var first []byte
		for i := 0; i < q.Rechecks && ok; i++ {
			out, err := codec.DecodeCtx(context.TODO(), comp, 0)
			if err != nil {
				q.pager.Page(Alarm{Kind: AlarmTimeoutExhausted, Chunk: h,
					Detail: fmt.Sprintf("recheck %d: %v", i, err), SavedData: comp})
				ok = false
				break
			}
			var buf bytes.Buffer
			if err := codec.DecodeToCtx(context.TODO(), &buf, comp, 0); err != nil || !bytes.Equal(buf.Bytes(), out) {
				q.pager.Page(Alarm{Kind: AlarmCrossCheckMismatch, Chunk: h,
					Detail: "streaming and buffered decodes disagree", SavedData: comp})
				ok = false
				break
			}
			if i == 0 {
				first = out
			} else if !bytes.Equal(first, out) {
				q.pager.Page(Alarm{Kind: AlarmTimeoutExhausted, Chunk: h,
					Detail: "nondeterministic decode across rechecks", SavedData: comp})
				ok = false
			}
		}
		q.mu.Lock()
		delete(q.pending, h)
		q.mu.Unlock()
		if ok {
			verified++
		} else {
			failed++
		}
	}
	return verified, failed
}

// Requalify re-verifies stored chunks against their expected plaintext —
// the §5.7 automated process that "searches for images that succeeded in a
// round-trip once but then fail a subsequent round-trip test". Any failure
// pages with the data saved.
func (st *Store) Requalify(ref FileRef, want []byte, pager *Pager) int {
	failures := 0
	off := 0
	size := st.ChunkSize
	if size <= 0 {
		size = 4 << 20
	}
	for _, h := range ref.Chunks {
		end := off + size
		if end > len(want) {
			end = len(want)
		}
		comp, ok := st.GetCompressedChunk(h)
		if !ok {
			pager.Page(Alarm{Kind: AlarmDecodeFailure, Chunk: h, Detail: "chunk missing from store"})
			failures++
			off = end
			continue
		}
		out, err := st.Codec.DecodeCtx(context.TODO(), comp, 0)
		if err != nil {
			pager.Page(Alarm{Kind: AlarmDecodeFailure, Chunk: h, Detail: err.Error(), SavedData: comp})
			failures++
		} else if !bytes.Equal(out, want[off:end]) {
			pager.Page(Alarm{Kind: AlarmRequalificationFailure, Chunk: h,
				Detail: "decode differs from original plaintext", SavedData: comp})
			failures++
		}
		off = end
	}
	return failures
}
