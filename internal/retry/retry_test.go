package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestCauseAndTransient(t *testing.T) {
	for _, tc := range []struct {
		err       error
		cause     string
		transient bool
	}{
		{nil, "", false},
		{fmt.Errorf("scan: %w", context.Canceled), CauseCanceled, false},
		{context.DeadlineExceeded, CauseCanceled, false},
		{fmt.Errorf("dial: %w", os.ErrDeadlineExceeded), CauseTimeout, true},
		{fmt.Errorf("dial: %w", syscall.ECONNREFUSED), CauseRefused, true},
		{fmt.Errorf("read: %w", syscall.ECONNRESET), CauseReset, true},
		{syscall.EPIPE, CauseReset, true},
		{io.EOF, CauseReset, true},
		{fmt.Errorf("hello: %w", io.ErrUnexpectedEOF), CauseReset, true},
		{errors.New("protocol violation"), CausePermanent, false},
	} {
		if got := Cause(tc.err); got != tc.cause {
			t.Errorf("Cause(%v) = %q, want %q", tc.err, got, tc.cause)
		}
		if got := Transient(tc.err); got != tc.transient {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.transient)
		}
	}
}

// TestBudgetConcurrentTake: racing takers get exactly the budget, never
// more (run under -race in ci).
func TestBudgetConcurrentTake(t *testing.T) {
	const size, takers, tries = 100, 8, 50
	b := NewBudget(size)
	var granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < takers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tries; i++ {
				if b.Take() {
					granted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if granted.Load() != size || b.Remaining() != 0 {
		t.Fatalf("granted %d of %d, %d remaining", granted.Load(), size, b.Remaining())
	}
	if NewBudget(0).Take() || NewBudget(-1).Take() {
		t.Error("an empty or negative budget granted a retry")
	}
}

func TestJitterSeededAndBounded(t *testing.T) {
	a, b := NewJitter(7), NewJitter(7)
	const d = 100 * time.Millisecond
	for i := 0; i < 200; i++ {
		ja, jb := a.Jitter(d), b.Jitter(d)
		if ja != jb {
			t.Fatalf("draw %d: same seed gave %v and %v", i, ja, jb)
		}
		if ja < d/2 || ja >= d*3/2 {
			t.Fatalf("draw %d: %v outside [0.5d, 1.5d)", i, ja)
		}
	}
}

func TestDoubleBackoffSaturates(t *testing.T) {
	const cap = 2 * time.Second
	d := 25 * time.Millisecond
	for i := 0; i < 100; i++ { // far past the ~40 doublings that overflow
		if d = DoubleBackoff(d, cap); d <= 0 || d > cap {
			t.Fatalf("step %d: backoff %v outside (0, %v]", i, d, cap)
		}
	}
	if d != cap {
		t.Errorf("schedule settled at %v, want %v", d, cap)
	}
	if got := DoubleBackoff(time.Duration(1)<<62, cap); got != cap {
		t.Errorf("overflowing step = %v, want %v", got, cap)
	}
}
