// RTT estimation in the Jacobson/Karels shape (RFC 6298): a smoothed
// round-trip EWMA plus a mean-deviation term feeding a retransmission
// timeout that backs off exponentially under repeated failure. The fleet
// router keeps one estimator per node fed by successful load probes, and
// the backfill pacer reuses the same machinery — fed by its own request
// completions — to time out low-priority work without guessing deadlines.
package server

import (
	"sync"
	"time"
)

// RTT estimator bounds. The gains are the classic 1/8 (srtt) and 1/4
// (rttvar); the RTO is srtt + 4*rttvar clamped into
// [DefaultRTOMin, DefaultRTOMax].
const (
	// DefaultRTOMin keeps the timeout from collapsing below scheduler
	// jitter on loopback-fast paths.
	DefaultRTOMin = 20 * time.Millisecond
	// DefaultRTOMax bounds the exponential backoff.
	DefaultRTOMax = 10 * time.Second
	// initialRTO is used before the first sample (RFC 6298 §2.1 says 1s).
	initialRTO = time.Second
)

// RTTStat is a point-in-time view of an estimator.
type RTTStat struct {
	SRTT    time.Duration // smoothed round-trip EWMA
	RTTVar  time.Duration // smoothed mean deviation
	RTO     time.Duration // current timeout, backoff included
	Samples int64         // successful round trips observed
}

// RTTEstimator tracks one peer's round-trip time. Safe for concurrent use;
// the zero value is ready.
type RTTEstimator struct {
	mu      sync.Mutex
	srtt    time.Duration
	rttvar  time.Duration
	rto     time.Duration
	samples int64
}

func clampRTO(d time.Duration) time.Duration {
	return min(max(d, DefaultRTOMin), DefaultRTOMax)
}

// Observe folds one successful round trip into the estimate and resets any
// backoff: a fresh sample is proof the peer answers at this pace.
func (e *RTTEstimator) Observe(sample time.Duration) {
	if sample < 0 {
		sample = 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		dev := e.srtt - sample
		if dev < 0 {
			dev = -dev
		}
		e.rttvar = (3*e.rttvar + dev) / 4
		e.srtt = (7*e.srtt + sample) / 8
	}
	e.samples++
	e.rto = clampRTO(e.srtt + 4*e.rttvar)
}

// Backoff doubles the timeout (clamped to the max) after a loss or expiry,
// so repeated failures probe the peer ever more gently.
func (e *RTTEstimator) Backoff() {
	e.mu.Lock()
	defer e.mu.Unlock()
	rto := e.rto
	if rto <= 0 {
		rto = initialRTO
	}
	e.rto = clampRTO(2 * rto)
}

// RTO returns the current timeout: the Jacobson formula after samples, the
// conventional 1 second before any.
func (e *RTTEstimator) RTO() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rto <= 0 {
		return initialRTO
	}
	return e.rto
}

// Stat snapshots the estimator.
func (e *RTTEstimator) Stat() RTTStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	rto := e.rto
	if rto <= 0 {
		rto = initialRTO
	}
	return RTTStat{SRTT: e.srtt, RTTVar: e.rttvar, RTO: rto, Samples: e.samples}
}
