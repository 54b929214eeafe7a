package zscan

import (
	"context"
	"math"
	"time"
)

// pacer is the sender's token bucket. A per-probe ticker cannot pace
// past ~1k probes/sec: time.Sleep and ticker wakeups have ~1ms
// granularity, so any scheme that sleeps between individual probes is
// capped at one probe per wakeup. The bucket instead accrues fractional
// tokens continuously and lets the sender burst through the accumulated
// allowance after each sleep — the standard high-rate pacing shape. A
// nil pacer is unpaced.
type pacer struct {
	rate   float64 // tokens per second
	cap    float64 // bucket capacity
	tokens float64
	last   time.Time
}

// minSleep batches sleeps to at least scheduler granularity; shorter
// requests just burn CPU without improving pacing accuracy.
const minSleep = time.Millisecond

// newPacer returns a bucket issuing rate tokens/sec with the given
// burst capacity (0 picks rate/100, i.e. 10ms of allowance, floored at
// 1). rate <= 0 returns nil: unpaced. So does +Inf, whose accrual
// (elapsed x rate) is NaN whenever two clock reads coincide, and a NaN
// bucket never fills again.
func newPacer(rate float64, burst int) *pacer {
	if rate <= 0 || math.IsInf(rate, 1) {
		return nil
	}
	cap := float64(burst)
	if b := rate / 100; cap < b {
		cap = b
	}
	if cap < 1 {
		cap = 1
	}
	return &pacer{rate: rate, cap: cap, tokens: 1, last: time.Now()}
}

// wait blocks until one token is available (or the context ends) and
// consumes it. It reports false only when the context was canceled.
func (p *pacer) wait(ctx context.Context) bool {
	if p == nil {
		return ctx.Err() == nil
	}
	for {
		now := time.Now()
		p.tokens += now.Sub(p.last).Seconds() * p.rate
		p.last = now
		if p.tokens > p.cap {
			p.tokens = p.cap
		}
		if p.tokens >= 1 {
			p.tokens--
			return true
		}
		sleep := time.Duration((1 - p.tokens) / p.rate * float64(time.Second))
		if sleep < minSleep {
			sleep = minSleep
		}
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
}
