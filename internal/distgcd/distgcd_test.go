package distgcd

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/telemetry"
)

func primes(t testing.TB, seed int64, n, bits int) []*big.Int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	out := make([]*big.Int, 0, n)
	for len(out) < n {
		p, err := numtheory.GenPrimeNaive(rng, bits)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.String()] {
			continue
		}
		seen[p.String()] = true
		out = append(out, p)
	}
	return out
}

func mul(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }

// mixedCorpus builds a corpus with known vulnerable indices: some safe
// moduli from disjoint primes, some sharing a prime within the corpus.
func mixedCorpus(t testing.TB, seed int64, nSafe, nShared, bits int) ([]*big.Int, map[int]bool) {
	ps := primes(t, seed, 2*nSafe+nShared+1, bits)
	var moduli []*big.Int
	want := make(map[int]bool)
	for i := 0; i < nSafe; i++ {
		moduli = append(moduli, mul(ps[2*i], ps[2*i+1]))
	}
	shared := ps[2*nSafe]
	for i := 0; i < nShared; i++ {
		want[len(moduli)] = true
		moduli = append(moduli, mul(shared, ps[2*nSafe+1+i]))
	}
	if nShared == 1 {
		// A single user of the shared prime is not vulnerable.
		want = map[int]bool{}
	}
	return moduli, want
}

func TestRunMatchesExpected(t *testing.T) {
	moduli, want := mixedCorpus(t, 1, 6, 4, 48)
	for _, k := range []int{1, 2, 3, 4, 7, 10, 100} {
		res, stats, err := Run(context.Background(), moduli, Options{Subsets: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := make(map[int]bool)
		for _, r := range res {
			got[r.Index] = true
		}
		for i := range moduli {
			if got[i] != want[i] {
				t.Errorf("k=%d index %d: got %v want %v", k, i, got[i], want[i])
			}
		}
		if int(stats.ItemsIn) != len(moduli) {
			t.Errorf("k=%d: stats.ItemsIn = %d", k, stats.ItemsIn)
		}
		if k <= len(moduli) && stats.Subsets != k {
			t.Errorf("k=%d: stats.Subsets = %d", k, stats.Subsets)
		}
	}
}

func TestRunAgreesWithSingleTreeDivisors(t *testing.T) {
	moduli, _ := mixedCorpus(t, 2, 5, 3, 48)
	single, err := batchgcd.Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := Run(context.Background(), moduli, Options{Subsets: 4})
	if err != nil {
		t.Fatal(err)
	}
	sdiv := make(map[int]string)
	for _, r := range single {
		sdiv[r.Index] = r.Divisor.String()
	}
	if len(single) != len(dist) {
		t.Fatalf("result count: single %d, dist %d", len(single), len(dist))
	}
	for _, r := range dist {
		if sdiv[r.Index] != r.Divisor.String() {
			t.Errorf("index %d: single divisor %s, dist %s", r.Index, sdiv[r.Index], r.Divisor)
		}
	}
}

func TestRunCliqueAcrossSubsets(t *testing.T) {
	// Force clique members into different subsets (round-robin placement
	// with k=3 puts indices 0,1,2 on different nodes).
	ps := primes(t, 3, 3, 48)
	moduli := []*big.Int{mul(ps[0], ps[1]), mul(ps[0], ps[2]), mul(ps[1], ps[2])}
	res, _, err := Run(context.Background(), moduli, Options{Subsets: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want 3 vulnerable, got %v", res)
	}
	for _, r := range res {
		// Both primes shared -> divisor is the whole modulus, as in the
		// single-tree algorithm.
		if r.Divisor.Cmp(moduli[r.Index]) != 0 {
			t.Errorf("index %d: divisor %v", r.Index, r.Divisor)
		}
	}
}

func TestRunDuplicates(t *testing.T) {
	ps := primes(t, 4, 2, 48)
	n := mul(ps[0], ps[1])
	res, _, err := Run(context.Background(), []*big.Int{n, new(big.Int).Set(n)}, Options{Subsets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("duplicates must not be self-vulnerable: %v", res)
	}
	// k is clamped to the distinct count: four copies of one modulus run
	// on one node, and the stats and gauge must say so.
	reg := telemetry.New()
	_, stats, err := Run(context.Background(), []*big.Int{n, n, n, n}, Options{Subsets: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Subsets != 1 {
		t.Errorf("Stats.Subsets = %d for 4 copies of one modulus, want 1", stats.Subsets)
	}
	if got := reg.Gauge("distgcd_subsets").Value(); got != 1 {
		t.Errorf("distgcd_subsets = %v, want 1", got)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := Run(context.Background(), nil, Options{Subsets: 2}); err != batchgcd.ErrNoInput {
		t.Errorf("empty input: %v", err)
	}
	moduli, _ := mixedCorpus(t, 5, 2, 0, 48)
	if _, _, err := Run(context.Background(), moduli, Options{Subsets: 0}); err == nil {
		t.Error("Subsets=0 should error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Run(ctx, moduli, Options{Subsets: 2}); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestStatsPopulated(t *testing.T) {
	moduli, _ := mixedCorpus(t, 6, 10, 5, 64)
	_, stats, err := Run(context.Background(), moduli, Options{Subsets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CPU <= 0 {
		t.Error("CPU should be positive")
	}
	if stats.Bytes <= 0 {
		t.Error("Bytes (peak node mem) should be positive")
	}
	if stats.Wall <= 0 {
		t.Error("Wall should be positive")
	}
}

func TestPeakMemShrinksWithMoreSubsets(t *testing.T) {
	// The entire point of the partitioned algorithm: per-node trees are
	// smaller. Peak per-node memory with k=8 must be well below k=1.
	moduli, _ := mixedCorpus(t, 7, 32, 0, 64)
	_, s1, err := Run(context.Background(), moduli, Options{Subsets: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, s8, err := Run(context.Background(), moduli, Options{Subsets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s8.Bytes >= s1.Bytes {
		t.Errorf("k=8 peak %d should be below k=1 peak %d", s8.Bytes, s1.Bytes)
	}
}

// TestRunCancelledContext cancels before the run and at several points
// into it. 2,048 × 128-bit moduli at k=4 take long enough that the later
// cancels land in either phase; each must fail the whole run promptly.
func TestRunCancelledContext(t *testing.T) {
	moduli, _ := mixedCorpus(t, 11, 2044, 4, 64)
	for _, delay := range []time.Duration{-1, 0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan time.Time, 1)
		fire := func() { cancelled <- time.Now(); cancel() }
		if delay < 0 {
			fire() // before the run starts
		} else {
			time.AfterFunc(delay, fire)
		}
		res, _, err := Run(ctx, moduli, Options{Subsets: 4})
		returned := time.Now()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel after %v: %d results, err = %v; want none and a wrapped context.Canceled", delay, len(res), err)
		}
		if lag := returned.Sub(<-cancelled); lag > time.Second {
			t.Errorf("cancel after %v: Run returned %v after the cancel", delay, lag)
		}
		cancel()
	}
}

// TestRunCancelledInReciprocal cancels a k=4 run halfway through the
// first node's Newton reciprocal, timed from a traced run of the same
// corpus, and wants a wrapped context.Canceled within a second.
func TestRunCancelledInReciprocal(t *testing.T) {
	moduli := randomOdd(13, 12288)
	tracer := telemetry.NewTracer()
	if _, _, err := Run(telemetry.ContextWithSpan(context.Background(), tracer.Start("run")), moduli, Options{Subsets: 4}); err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for _, ev := range tracer.Events() {
		if mid := time.Duration((ev.TS + ev.Dur/2) * float64(time.Microsecond)); ev.Name == "prodtree.reciprocal" && (at == 0 || mid < at) {
			at = mid
		}
	}
	if at == 0 {
		t.Fatal("no prodtree.reciprocal span: the nodes do not reach the scaled descent")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := make(chan time.Time, 1)
	time.AfterFunc(at, func() { fired <- time.Now(); cancel() })
	res, _, err := Run(ctx, moduli, Options{Subsets: 4})
	returned := time.Now()
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancel after %v: %d results, err = %v; want none and a wrapped context.Canceled", at, len(res), err)
	}
	if lag := returned.Sub(<-fired); lag > time.Second {
		t.Errorf("Run returned %v after the cancel", lag)
	}
}

func TestRunItemsInOut(t *testing.T) {
	ps := primes(t, 12, 6, 64)
	// Two moduli sharing ps[0]: both vulnerable.
	moduli := []*big.Int{
		new(big.Int).Mul(ps[0], ps[1]),
		new(big.Int).Mul(ps[0], ps[2]),
		new(big.Int).Mul(ps[3], ps[4]),
	}
	results, stats, err := Run(context.Background(), moduli, Options{Subsets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ItemsIn != 3 {
		t.Errorf("ItemsIn = %d, want 3", stats.ItemsIn)
	}
	if int(stats.ItemsOut) != len(results) || stats.ItemsOut != 2 {
		t.Errorf("ItemsOut = %d (results %d), want 2", stats.ItemsOut, len(results))
	}
}

// randomOdd returns n random odd integers of two 64-bit limbs: the
// tree's cost is in the operand widths, and random integers share small
// factors, so a batch GCD over them reports much.
func randomOdd(seed int64, n int) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]*big.Int, n)
	for i := range vals {
		vals[i] = new(big.Int).Lsh(new(big.Int).SetUint64(rng.Uint64()|1<<63), 64)
		vals[i].Or(vals[i], new(big.Int).SetUint64(rng.Uint64()|1))
	}
	return vals
}
