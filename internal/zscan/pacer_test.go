package zscan

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestPacerNilIsUnpaced: no rate, an infinite rate and a rate past
// anything a clock can resolve all hand out tokens without sleeping.
func TestPacerNilIsUnpaced(t *testing.T) {
	if newPacer(0, 0) != nil || newPacer(math.Inf(1), 0) != nil {
		t.Fatal("zero and infinite rates must select the nil (unpaced) pacer")
	}
	for _, p := range []*pacer{nil, newPacer(1e12, 0)} {
		start := time.Now()
		for i := 0; i < 1000; i++ {
			if !p.wait(context.Background()) {
				t.Fatal("unpaced pacer refused a token")
			}
		}
		if time.Since(start) > 100*time.Millisecond {
			t.Error("unpaced pacer slept")
		}
	}
	var p *pacer
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if p.wait(ctx) {
		t.Error("nil pacer must observe cancellation")
	}
}

func TestPacerEnforcesRate(t *testing.T) {
	p := newPacer(1000, 1)
	start := time.Now()
	for i := 0; i < 300; i++ {
		if !p.wait(context.Background()) {
			t.Fatal("pacer refused a token")
		}
	}
	elapsed := time.Since(start)
	// 300 tokens at 1000/s is ~300ms; allow wide slack downward for the
	// initial bucket but catch an unpaced sprint.
	if elapsed < 200*time.Millisecond {
		t.Errorf("300 tokens at 1000/s took %v, want >= 200ms", elapsed)
	}
}

func TestPacerBurstAllowsCatchUp(t *testing.T) {
	// A bucket with capacity should hand out accumulated allowance
	// without sleeping once per token.
	p := newPacer(100000, 1000)
	time.Sleep(20 * time.Millisecond) // accrue ~2000 tokens, capped at 1000
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if !p.wait(context.Background()) {
			t.Fatal("pacer refused a token")
		}
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("draining the burst allowance took %v", elapsed)
	}
}

func TestPacerCancel(t *testing.T) {
	p := newPacer(1, 1)
	if !p.wait(context.Background()) {
		t.Fatal("first token must be available")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if p.wait(ctx) {
		t.Fatal("canceled wait must report false")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("cancel did not interrupt the wait promptly")
	}
}
