// Package retry holds the failure classification and retry-pacing
// primitives shared by the scan engine, the cluster router and the
// ingest bridge: which errors are worth another attempt, a shared cap on
// how many, and a seeded, saturating backoff schedule between them.
package retry

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Error causes, as recorded in zscan_probe_errors_total{cause=...}. The
// classification drives the retry policy: network-weather failures
// (refused, reset, timeout) are transient and worth another attempt —
// for a scan, the next sweep's; protocol violations and certificate
// parse failures are properties of the endpoint and retrying them only
// burns budget.
const (
	CauseRefused   = "refused"
	CauseReset     = "reset"
	CauseTimeout   = "timeout"
	CauseCanceled  = "canceled"
	CausePermanent = "permanent"
)

// Cause buckets an error for metrics and for the retry policy.
func Cause(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The scan is being shut down, not the target misbehaving:
		// never spend retries on it.
		return CauseCanceled
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return CauseTimeout
	}
	switch {
	case errors.Is(err, syscall.ECONNREFUSED):
		return CauseRefused
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		// The peer hung up mid-handshake (an abrupt close or RST lands
		// as EOF/unexpected-EOF through the buffered reader).
		return CauseReset
	}
	return CausePermanent
}

// Transient reports whether err is worth retrying: connection refused,
// connection reset / mid-handshake hangup, or a timeout. Protocol
// violations, certificate parse errors and cancellation are permanent.
func Transient(err error) bool {
	switch Cause(err) {
	case CauseRefused, CauseReset, CauseTimeout:
		return true
	}
	return false
}

// Budget is a shared cap on retries across one operation — a scan's
// ingest bridge, or the cluster router's request fan-out. A dying
// network must not multiply traffic — the retry-storm guard a router
// in front of a degraded cluster needs.
type Budget struct {
	n atomic.Int64
}

// NewBudget returns a budget of n retries.
func NewBudget(n int64) *Budget {
	b := &Budget{}
	b.n.Store(n)
	return b
}

// Take consumes one retry if any remain.
func (b *Budget) Take() bool {
	for {
		v := b.n.Load()
		if v <= 0 {
			return false
		}
		if b.n.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// Remaining reports how many retries are left.
func (b *Budget) Remaining() int64 { return b.n.Load() }

// Jitter is a mutex-guarded seeded source for backoff jitter, so
// same-seed runs draw the same jitter sequence.
type Jitter struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewJitter returns a seeded jitter source.
func NewJitter(seed int64) *Jitter {
	return &Jitter{r: rand.New(rand.NewSource(seed))}
}

// Jitter spreads d over [0.5d, 1.5d) so synchronized failures don't
// retry in lockstep (the thundering-herd guard).
func (l *Jitter) Jitter(d time.Duration) time.Duration {
	l.mu.Lock()
	f := 0.5 + l.r.Float64()
	l.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// DoubleBackoff is the exponential step, saturating at cap and immune
// to overflow: left uncapped, repeated doubling wraps negative after
// ~40 retries of the 25ms default, and a negative sleep turns the
// backoff into a hot retry loop against an already-struggling target.
func DoubleBackoff(d, cap time.Duration) time.Duration {
	d *= 2
	if d > cap || d <= 0 {
		return cap
	}
	return d
}
