package kernel

import (
	"context"
	"math/big"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		e := New(workers)
		for _, n := range []int{1, 2, 3, 4, 7, 100, 5000} {
			got := make([]int64, n)
			err := e.Run(context.Background(), n, func(i int, a *Arena) {
				z := a.Get()
				z.SetInt64(int64(i))
				z.Mul(z, z)
				atomic.AddInt64(&got[i], z.Int64())
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range got {
				if got[i] != int64(i)*int64(i) {
					t.Fatalf("workers=%d n=%d: index %d ran %v times / wrong value", workers, n, i, got[i])
				}
			}
		}
		e.Close()
	}
}

func TestRunZeroAndNegative(t *testing.T) {
	e := New(4)
	defer e.Close()
	for _, n := range []int{0, -3} {
		if err := e.Run(context.Background(), n, func(int, *Arena) {
			t.Fatal("f called for empty job")
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestNestedRun submits jobs from inside running jobs — the keycheck
// shard-build shape (outer fan-out over shards, inner product-tree
// levels) — and must neither deadlock nor lose indices.
func TestNestedRun(t *testing.T) {
	e := New(4)
	defer e.Close()
	const outer, inner = 6, 200
	var total atomic.Int64
	err := e.Run(context.Background(), outer, func(i int, _ *Arena) {
		err := e.Run(context.Background(), inner, func(j int, a *Arena) {
			z := a.Get()
			z.SetInt64(1)
			total.Add(z.Int64())
		})
		if err != nil {
			t.Errorf("inner run %d: %v", i, err)
		}
	})
	if err != nil {
		t.Fatalf("outer run: %v", err)
	}
	if got := total.Load(); got != outer*inner {
		t.Fatalf("nested runs executed %d of %d indices", got, outer*inner)
	}
}

// TestCancellationStopsWithinChunks proves per-chunk cancellation: a
// context cancelled by the very first index must abandon the bulk of a
// large job instead of running its level to completion.
func TestCancellationStopsWithinChunks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(workers)
		ctx, cancel := context.WithCancel(context.Background())
		const n = 200000
		var ran atomic.Int64
		err := e.Run(ctx, n, func(i int, _ *Arena) {
			ran.Add(1)
			cancel()
		})
		if err == nil {
			t.Fatalf("workers=%d: cancelled run returned nil error", workers)
		}
		// Every chunk already claimed when cancel landed may finish;
		// with chunks capped at maxChunk that is far below n.
		if got := ran.Load(); got >= n/2 {
			t.Fatalf("workers=%d: %d of %d indices ran after cancellation", workers, got, n)
		}
		cancel()
		e.Close()
	}
}

func TestArenaRecyclesAcrossRuns(t *testing.T) {
	e := New(1)
	defer e.Close()
	for run := 0; run < 3; run++ {
		err := e.Run(context.Background(), 64, func(i int, a *Arena) {
			a.Get().SetInt64(int64(i))
			a.Get().SetInt64(int64(-i))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.ArenaHits == 0 {
		t.Fatalf("no arena hits after repeated runs: %+v", st)
	}
	if st.Ops != 3*64 {
		t.Fatalf("ops = %d, want %d", st.Ops, 3*64)
	}
}

func TestFromContext(t *testing.T) {
	if FromContext(context.Background()) != Default() {
		t.Fatal("bare context did not resolve to the default engine")
	}
	e := New(2)
	defer e.Close()
	ctx := With(context.Background(), e)
	if FromContext(ctx) != e {
		t.Fatal("With-attached engine not returned by FromContext")
	}
}

// TestConcurrentSubmitters drives many goroutines through one engine at
// once — the distgcd many-nodes shape — under the race detector.
func TestConcurrentSubmitters(t *testing.T) {
	e := New(4)
	defer e.Close()
	const submitters, n = 8, 3000
	done := make(chan int64, submitters)
	for s := 0; s < submitters; s++ {
		go func(seed int64) {
			var sum atomic.Int64
			err := e.Run(context.Background(), n, func(i int, a *Arena) {
				z := a.Get()
				z.SetInt64(seed + int64(i))
				sum.Add(z.Int64())
			})
			if err != nil {
				t.Error(err)
			}
			done <- sum.Load()
		}(int64(s))
	}
	for s := 0; s < submitters; s++ {
		want := int64(s)*n + int64(n)*(n-1)/2
		got := <-done
		found := false
		for ss := 0; ss < submitters; ss++ {
			if got == int64(ss)*n+int64(n)*(n-1)/2 {
				found = true
			}
		}
		if !found {
			t.Fatalf("submitter sum %d matches no expected total (e.g. %d)", got, want)
		}
	}
}

func TestStatsAndPublish(t *testing.T) {
	e := New(2)
	defer e.Close()
	if err := e.Run(context.Background(), 100, func(i int, a *Arena) {
		a.Get().SetInt64(int64(i))
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Workers != 2 || st.Jobs != 1 || st.Ops != 100 || st.Chunks == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.ArenaHits+st.ArenaMisses != 100 {
		t.Fatalf("arena tally %d+%d does not cover 100 Gets", st.ArenaHits, st.ArenaMisses)
	}
	e.Publish(nil) // nil-safe
}

// TestArenaCapOverflow: Gets past arenaCap in one chunk still work,
// they just are not retained.
func TestArenaCapOverflow(t *testing.T) {
	e := New(1)
	defer e.Close()
	err := e.Run(context.Background(), 1, func(i int, a *Arena) {
		vals := make([]*big.Int, 0, arenaCap+10)
		for k := 0; k < arenaCap+10; k++ {
			v := a.Get()
			v.SetInt64(int64(k))
			vals = append(vals, v)
		}
		for k, v := range vals {
			if v.Int64() != int64(k) {
				t.Errorf("scratch %d clobbered within one invocation", k)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanOutRule: any job of two or more ops is pooled on a multi-worker
// engine, one chunk per op at that size — the 2- and 3-node levels at
// the top of a tree are its most expensive; a single op, or any job on
// a 1-worker engine, runs inline on the caller.
func TestFanOutRule(t *testing.T) {
	for _, tc := range []struct {
		workers, n int
		inline     bool
	}{{2, 2, false}, {2, 3, false}, {8, 2, false}, {8, 3, false}, {2, 1, true}, {8, 1, true}, {1, 1, true}, {1, 3, true}} {
		e := New(tc.workers)
		var ran atomic.Int64
		if err := e.Run(context.Background(), tc.n, func(int, *Arena) { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if ran.Load() != int64(tc.n) {
			t.Errorf("workers=%d n=%d: ran %d ops", tc.workers, tc.n, ran.Load())
		}
		if got := st.InlineJobs == 1; got != tc.inline {
			t.Errorf("workers=%d n=%d: inline = %v, want %v", tc.workers, tc.n, got, tc.inline)
		}
		if st.Chunks != int64(tc.n) {
			t.Errorf("workers=%d n=%d: %d chunks, want one per op", tc.workers, tc.n, st.Chunks)
		}
		e.Close()
	}
}
