package batchgcd

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/kernel"
)

// sharedPrimeCorpus builds n semiprimes from 64-bit primes with a few
// shared-prime pairs and some exact duplicates sprinkled in, the mix
// the dedup and sweep paths have to agree on.
func sharedPrimeCorpus(seed int64, n int) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	prime := func() *big.Int {
		for {
			p := new(big.Int).SetUint64(rng.Uint64() | 1<<63 | 1)
			if p.ProbablyPrime(0) {
				return p
			}
		}
	}
	mods := make([]*big.Int, 0, n)
	for len(mods) < n/10 {
		shared := prime()
		mods = append(mods,
			new(big.Int).Mul(shared, prime()),
			new(big.Int).Mul(shared, prime()))
	}
	for len(mods) < n-n/20 {
		mods = append(mods, new(big.Int).Mul(prime(), prime()))
	}
	for len(mods) < n {
		mods = append(mods, new(big.Int).Set(mods[rng.Intn(len(mods))])) // duplicates
	}
	rng.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
	return mods
}

// TestFactorPooledMatchesSerial is the full-Factor half of the
// equivalence property: the pooled engine must produce results
// bit-identical — same order, same indices, same divisors — to the
// 1-worker serial baseline, whose arena ledger is checked afterwards.
// The last corpus is long enough that the tree's top runs on the
// transform multiply and the scaled descent.
func TestFactorPooledMatchesSerial(t *testing.T) {
	serial := kernel.New(1)
	pooled := kernel.New(8)
	defer serial.Close()
	defer pooled.Close()

	for _, c := range []struct{ seed, n int64 }{{1, 400}, {42, 400}, {2016, 400}, {29, 4000}} {
		seed, mods := c.seed, sharedPrimeCorpus(c.seed, int(c.n))
		sres, err := FactorCtx(kernel.With(context.Background(), serial), mods)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := FactorCtx(kernel.With(context.Background(), pooled), mods)
		if err != nil {
			t.Fatal(err)
		}
		if len(sres) != len(pres) {
			t.Fatalf("seed %d: %d serial results vs %d pooled", seed, len(sres), len(pres))
		}
		if len(sres) == 0 {
			t.Fatalf("seed %d: corpus produced no vulnerable moduli", seed)
		}
		for i := range sres {
			if sres[i].Index != pres[i].Index || sres[i].Divisor.Cmp(pres[i].Divisor) != 0 {
				t.Fatalf("seed %d: result %d differs: serial {%d %v} pooled {%d %v}",
					seed, i, sres[i].Index, sres[i].Divisor, pres[i].Index, pres[i].Divisor)
			}
		}
	}
	// The arena is what keeps the tree passes off the allocator: over
	// three corpora at least nine scratch values in ten must be recycled.
	if st := serial.Stats(); st.ArenaHits < 9*st.ArenaMisses {
		t.Errorf("serial engine recycled %d scratch values against %d fresh, want >= 9:1", st.ArenaHits, st.ArenaMisses)
	}
}

// TestOwnDivisorsMatchSquaredOracle holds OwnDivisors to gcd(N, (P mod
// N²)/N) off the squared remainder tree, Bernstein's route, through
// NewBatch's dedup, on a serial and a pooled engine: shared-prime pairs,
// exact duplicates, and a modulus both of whose primes are shared
// (residue 0, so the divisor is the modulus itself).
func TestOwnDivisorsMatchSquaredOracle(t *testing.T) {
	serial := kernel.New(1)
	pooled := kernel.New(8)
	defer serial.Close()
	defer pooled.Close()
	sctx := kernel.With(context.Background(), serial)
	pctx := kernel.With(context.Background(), pooled)

	ps := corpus(t, 16, 4, 96)
	both := mul(ps[0], ps[1])
	for _, n := range []int{0, 1, 30, 400} {
		mods := append([]*big.Int{both, mul(ps[0], ps[2]), mul(ps[1], ps[3]), new(big.Int).Set(both)}, sharedPrimeCorpus(int64(n), n)...)
		b, err := NewBatch(pctx, mods)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := b.tree.RemainderTreeSquaredCtx(sctx, b.Product())
		if err != nil {
			t.Fatal(err)
		}
		sdivs, err := b.OwnDivisors(sctx)
		if err != nil {
			t.Fatal(err)
		}
		pdivs, err := b.OwnDivisors(pctx)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range b.moduli {
			want := oracle[i].Quo(oracle[i], m)
			if want.GCD(nil, nil, want, m).Cmp(bigOne) == 0 {
				want = nil
			}
			for _, got := range []*big.Int{sdivs[i], pdivs[i]} {
				if (got == nil) != (want == nil) || got != nil && got.Cmp(want) != 0 {
					t.Fatalf("n=%d: divisor %d serial %v pooled %v, oracle %v", n, i, sdivs[i], pdivs[i], want)
				}
			}
		}
		if pdivs[0] == nil || pdivs[0].Cmp(both) != 0 {
			t.Fatalf("n=%d: both primes shared: divisor %v, want the modulus", n, pdivs[0])
		}
	}
}
