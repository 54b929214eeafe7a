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
// tokens continuously and grants a whole run's worth in one call — the
// standard high-rate pacing shape, with one clock read per run rather
// than per probe. A nil pacer is unpaced.
type pacer struct {
	rate   float64 // tokens per second
	cap    float64 // bucket capacity
	tokens float64
	last   time.Time
}

// minSleep batches sleeps to at least scheduler granularity; shorter
// requests just burn CPU without improving pacing accuracy.
const minSleep = time.Millisecond

// newPacer returns a bucket issuing rate tokens/sec that holds rate/100
// of them, i.e. 10ms of allowance, floored at 1. rate <= 0 returns nil:
// unpaced. So does +Inf, whose accrual (elapsed x rate) is NaN whenever
// two clock reads coincide, and a NaN bucket never fills again.
func newPacer(rate float64) *pacer {
	if rate <= 0 || math.IsInf(rate, 1) {
		return nil
	}
	return &pacer{rate: rate, cap: max(rate/100, 1), tokens: 1, last: time.Now()}
}

// take blocks until n tokens are available (or the context ends) and
// consumes them in one grant. n must not exceed most(). It reports
// false only when the context was canceled.
func (p *pacer) take(ctx context.Context, n int) bool {
	if p == nil {
		return ctx.Err() == nil
	}
	need := float64(n)
	for {
		now := time.Now()
		p.tokens += now.Sub(p.last).Seconds() * p.rate
		p.last = now
		if p.tokens > p.cap {
			p.tokens = p.cap
		}
		if p.tokens >= need {
			p.tokens -= need
			return true
		}
		sleep := time.Duration((need - p.tokens) / p.rate * float64(time.Second))
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

// most is the largest grant take may be asked for: maxRun, or half the
// bucket (at least one token) when that is less, so the tokens that
// accrue while a late timer wakes the sender still fit and the pace
// holds. At 1,000/s (a 10-token bucket) a run is granted 5 at a time.
func (p *pacer) most() int {
	if p == nil || p.cap/2 >= maxRun {
		return maxRun
	}
	if p.cap < 2 {
		return 1
	}
	return int(p.cap / 2)
}
