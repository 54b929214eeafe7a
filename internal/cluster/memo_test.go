package cluster

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"github.com/factorable/weakkeys/internal/keycheck"
)

// TestRouterMemo pins what the router remembers: the second check of a
// factored member is answered with no hop and the same verdict, and no
// other verdict — a clean member, a novel clean key, a novel
// shared_factor key — is stored.
func TestRouterMemo(t *testing.T) {
	rt, _ := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()

	for _, n := range []*big.Int{modN1, modN2} {
		first := rt.Check(ctx, n)
		if first.Status != keycheck.StatusFactored || !first.Known || first.Hops != 1 {
			t.Fatalf("first check of %s = %+v hops=%d, want factored/known in one hop", n.Text(16), first.Verdict, first.Hops)
		}
		second := rt.Check(ctx, n)
		if second.Hops != 0 {
			t.Errorf("second check of %s took %d hops, want 0 (remembered)", n.Text(16), second.Hops)
		}
		if second.Status != first.Status || second.Known != first.Known || second.FactorP != first.FactorP ||
			second.FactorQ != first.FactorQ || second.Vendor != first.Vendor || second.Degraded {
			t.Errorf("remembered answer for %s = %+v, want %+v", n.Text(16), second.Verdict, first.Verdict)
		}
	}
	if got := rt.metrics.CounterValue("cluster_memo_hits_total"); got != 2 {
		t.Errorf("cluster_memo_hits_total = %d, want 2", got)
	}

	for _, c := range []struct {
		name   string
		n      *big.Int
		status keycheck.Status
	}{
		{"clean member N3", modN3, keycheck.StatusClean},
		{"novel clean Nc", modNc, keycheck.StatusClean},
		{"novel shared Ns", modNs, keycheck.StatusSharedFactor},
	} {
		for i := 0; i < 2; i++ {
			if v := rt.Check(ctx, c.n); v.Status != c.status || v.Hops < 1 {
				t.Errorf("%s check %d = %+v hops=%d, want %s through a replica", c.name, i, v.Verdict, v.Hops, c.status)
			}
		}
		if _, ok := rt.memo.get(c.n.Text(16)); ok {
			t.Errorf("%s was remembered", c.name)
		}
	}
	if got := len(rt.memo.byID); got != 2 {
		t.Errorf("memo holds %d answers, want the 2 factored members", got)
	}
}

// TestRouterMemoSkipsDegraded kills two of three replicas: a degraded
// answer is never stored, and a factored member the router remembers
// is still answered, definitive, with both its home owners dead.
func TestRouterMemoSkipsDegraded(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	p := rt.Placement()

	want := rt.Check(ctx, modN1)
	for _, owner := range p.Owners(keycheck.ShardOf(modN1, p.Shards())) {
		replicaByAddr(t, replicas, owner).srv.Close()
	}
	v := rt.Check(ctx, modN1)
	if v.Status != keycheck.StatusFactored || !v.Known || v.Degraded || v.Hops != 0 || v.FactorP != want.FactorP || v.FactorQ != want.FactorQ {
		t.Errorf("N1 with both home owners dead = %+v degraded=%v hops=%d, want the remembered factored answer", v.Verdict, v.Degraded, v.Hops)
	}

	for i := 0; i < 2; i++ {
		if v := rt.Check(ctx, modNc); !v.Degraded || v.Hops < 1 {
			t.Fatalf("Nc check %d with two dead replicas = %+v degraded=%v hops=%d, want degraded through a replica", i, v.Verdict, v.Degraded, v.Hops)
		}
	}
	if _, ok := rt.memo.get(modNc.Text(16)); ok {
		t.Error("a degraded verdict was remembered")
	}
}

// TestMemoCapacity fills the memo past memoCapacity: it never holds
// more, the oldest answers go first, and a key stored twice keeps one
// slot.
func TestMemoCapacity(t *testing.T) {
	m := newMemo()
	const extra = 100
	key := func(i int) string { return fmt.Sprintf("%x", i) }
	for i := 0; i < memoCapacity+extra; i++ {
		m.put(key(i), RoutedVerdict{Replica: key(i)})
		m.put(key(i), RoutedVerdict{Replica: "again"})
		if len(m.byID) > memoCapacity || len(m.ring) > memoCapacity {
			t.Fatalf("after %d puts the memo holds %d answers in %d slots, capacity %d", i+1, len(m.byID), len(m.ring), memoCapacity)
		}
	}
	if len(m.byID) != memoCapacity {
		t.Errorf("full memo holds %d answers, want %d", len(m.byID), memoCapacity)
	}
	for i := 0; i < memoCapacity+extra; i++ {
		v, ok := m.get(key(i))
		if evicted := i < extra; ok == evicted {
			t.Errorf("key %d present=%v, want evicted=%v", i, ok, evicted)
		}
		if ok && v.Replica != key(i) {
			t.Errorf("key %d answers %q, want its first answer", i, v.Replica)
		}
	}
}

// TestRouterMemoConcurrent runs checks of remembered and unremembered
// keys side by side (the race detector watches the memo under make
// race): every answer is right, and every repeat of a factored member
// after the first round is a memo hit or its filling check.
func TestRouterMemoConcurrent(t *testing.T) {
	rt, _ := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	keys := []struct {
		n      *big.Int
		status keycheck.Status
		known  bool
	}{
		{modN1, keycheck.StatusFactored, true},
		{modN2, keycheck.StatusFactored, true},
		{modN3, keycheck.StatusClean, true},
		{modNc, keycheck.StatusClean, false},
		{modNs, keycheck.StatusSharedFactor, false},
	}
	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*len(keys))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range keys {
					k := keys[(i+w)%len(keys)]
					if v := rt.Check(ctx, k.n); v.Status != k.status || v.Known != k.known || v.Degraded {
						errs <- fmt.Sprintf("%s = %+v degraded=%v, want %s known=%v", k.n.Text(16), v.Verdict, v.Degraded, k.status, k.known)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Each factored member misses at most once per worker (checks racing
	// the first put); every other check of it is a hit.
	if got, min := rt.metrics.CounterValue("cluster_memo_hits_total"), int64(2*(workers*rounds-workers)); got < min {
		t.Errorf("cluster_memo_hits_total = %d, want at least %d", got, min)
	}
}

// TestRouterMemoAllocations holds a warm memo hit to a small allocation
// budget: formatting the modulus as hex is all it should cost, against
// hundreds for a replica round trip.
func TestRouterMemoAllocations(t *testing.T) {
	rt, _ := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	const budget = 4
	hop := testing.AllocsPerRun(20, func() { rt.Check(ctx, modN3) })
	rt.Check(ctx, modN1)
	hit := testing.AllocsPerRun(200, func() {
		if v := rt.Check(ctx, modN1); v.Hops != 0 {
			t.Fatalf("warm check of N1 took %d hops, want a memo hit", v.Hops)
		}
	})
	t.Logf("memo hit: %.0f allocations; clean member through the replicas: %.0f", hit, hop)
	if hit > budget {
		t.Errorf("a memo hit makes %.0f allocations, budget %d", hit, budget)
	}
}
