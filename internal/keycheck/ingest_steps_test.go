package keycheck

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/prodtree"
	"github.com/factorable/weakkeys/internal/scanstore"
)

func sameInts(got, want []*big.Int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || (want[i] != nil && got[i].Cmp(want[i]) != 0) {
			return false
		}
	}
	return true
}

// TestIngestPartition: a delta of one member, novel keys on both sides
// of the ownership line and a key seen under two identities sorts into
// duplicate / novel / foreign / newly-shared, and the report says so.
func TestIngestPartition(t *testing.T) {
	const shards = 2
	ctx := context.Background()
	own := ShardOf(modN3, shards)
	base := scanstore.New()
	base.AddBareKeyObservation("10.0.0.3", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN3)
	snap, err := Build(ctx, BuildInput{Store: base, Shards: shards, OwnShards: []int{own}})
	if err != nil {
		t.Fatal(err)
	}

	candidates := []*big.Int{mul(s1, s2), mul(s2, s3), mul(s3, s4), mul(s4, s5), mul(s5, s6), mul(s1, s6)}
	delta := scanstore.New()
	delta.AddBareKeyObservation("10.9.0.1", date(2013, 6, 1), scanstore.SourceRapid7, scanstore.SSH, modN3)
	var wantNovel, wantForeign []*big.Int
	for i, n := range candidates {
		delta.AddBareKeyObservation("10.9.0.1", date(2013, 6, 2+i), scanstore.SourceRapid7, scanstore.SSH, n)
		if ShardOf(n, shards) == own {
			wantNovel = append(wantNovel, n)
		} else {
			wantForeign = append(wantForeign, n)
		}
	}
	if len(wantNovel) == 0 || len(wantForeign) == 0 {
		t.Fatalf("fixture needs keys on both sides: %d owned, %d foreign", len(wantNovel), len(wantForeign))
	}
	// The first owned novel key shows up under a second identity.
	shared := wantNovel[0]
	delta.AddBareKeyObservation("10.9.0.2", date(2013, 6, 20), scanstore.SourceRapid7, scanstore.SSH, shared)

	var rep IngestReport
	d := snap.partition(delta, &rep)
	if !sameInts(d.novel, wantNovel) || !sameInts(d.foreign, wantForeign) {
		t.Errorf("novel %v foreign %v, want %v and %v", d.novel, d.foreign, wantNovel, wantForeign)
	}
	if !sameInts(d.swept(), append(append([]*big.Int(nil), wantNovel...), wantForeign...)) {
		t.Errorf("swept = %v, want novel then foreign", d.swept())
	}
	if rep.Duplicates != 1 || rep.Skipped != len(wantForeign) || rep.DeltaModuli != len(wantNovel) || len(rep.NovelKeys) != len(wantNovel) {
		t.Errorf("report %+v, want 1 duplicate, %d skipped, %d novel", rep, len(wantForeign), len(wantNovel))
	}
	for j, n := range wantNovel {
		if d.keys[j] != string(n.Bytes()) || rep.NovelKeys[j] != n.Text(16) {
			t.Errorf("novel %d: key %x / report %s, want %s", j, d.keys[j], rep.NovelKeys[j], n.Text(16))
		}
	}
	sd := d.shards[own]
	if !sameInts(sd.newMods, wantNovel) || len(sd.newKeys) != len(wantNovel) {
		t.Errorf("owned shard gains %v, want %v", sd.newMods, wantNovel)
	}
	if len(sd.newShared) != 1 || sd.newShared[string(shared.Bytes())] != 2 {
		t.Errorf("newShared = %v, want the twice-seen key at 2", sd.newShared)
	}
	if !d.shards[1-own].empty() || !d.changed() {
		t.Errorf("unowned shard gained something, or changed() = %v", d.changed())
	}

	// Members and foreign keys alone change nothing.
	quiet := deltaStore(t, modN3, wantForeign[0])
	if d := snap.partition(quiet, new(IngestReport)); d.changed() || len(d.foreign) != 1 {
		t.Errorf("duplicate+foreign delta: changed=%v foreign=%d", d.changed(), len(d.foreign))
	}
}

func mul(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }

// findMatesLinear is findMates' oracle, the scan it replaced: every leaf
// against every divisor.
func findMatesLinear(leaves, divs []*big.Int) []mate {
	var mates []mate
	g := new(big.Int)
	for _, leaf := range leaves {
		for _, d := range divs {
			if d == nil {
				continue
			}
			g.GCD(nil, nil, leaf, d)
			if g.Cmp(one) > 0 && g.Cmp(leaf) < 0 {
				mates = append(mates, mate{key: string(leaf.Bytes()), mod: leaf, divisor: new(big.Int).Set(g)})
				break
			}
		}
	}
	return mates
}

// matesFixture is a shard of n semiprime members over 41-bit primes and
// a divisor list as a sweep would yield it against `hits` of them: nil
// for a delta modulus sharing nothing, a member's prime — twice, as two
// delta moduli sharing one prime give — and once a whole product of two
// members' primes, the degenerate divisor == N.
func matesFixture(t testing.TB, n, hits int) (*prodtree.Forest, []*big.Int) {
	primes := primesFrom(1<<40, 2*n)
	leaves := make([]*big.Int, n)
	for i := range leaves {
		leaves[i] = mul(primes[2*i], primes[2*i+1])
	}
	tree, err := prodtree.NewForest(context.Background(), leaves)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)*131 + int64(hits)))
	divs := []*big.Int{nil}
	for h := 0; h < hits; h++ {
		p := primes[rng.Intn(len(primes))]
		if h%3 == 2 {
			p = mul(p, primes[rng.Intn(len(primes))])
		}
		divs = append(divs, p, nil, p)
	}
	return tree, divs
}

// TestFindMatesMatchesLinearScan: the descent names the same mates, with
// the same divisors, in the same leaf order as the leaves × divisors scan.
func TestFindMatesMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 257, 1000} {
		for _, hits := range []int{0, 1, 2, 5, 8} {
			tree, divs := matesFixture(t, n, hits)
			got, want := findMates(tree, divs, new(big.Int)), findMatesLinear(tree.Leaves(), divs)
			if len(got) != len(want) || (hits > 0 && len(want) == 0) {
				t.Fatalf("n=%d hits=%d: descent found %d mates, linear scan %d", n, hits, len(got), len(want))
			}
			for i := range want {
				if got[i].key != want[i].key || got[i].mod != want[i].mod || got[i].divisor.Cmp(want[i].divisor) != 0 {
					t.Errorf("n=%d hits=%d mate %d: descent %v via %v, linear scan %v via %v", n, hits, i, got[i].mod, got[i].divisor, want[i].mod, want[i].divisor)
				}
			}
		}
	}
}

// BenchmarkFindMates: one 4,096-member shard (the bench corpus's size)
// searched for the mates of 1 to 8 divisors, by the leaves × divisors
// scan and by the pruned descent.
func BenchmarkFindMates(b *testing.B) {
	for _, hits := range []int{1, 2, 4, 8} {
		tree, divs := matesFixture(b, 4096, hits)
		b.Run(fmt.Sprintf("hits=%d/linear", hits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				findMatesLinear(tree.Leaves(), divs)
			}
		})
		b.Run(fmt.Sprintf("hits=%d/descent", hits), func(b *testing.B) {
			b.ReportAllocs()
			g := new(big.Int)
			for i := 0; i < b.N; i++ {
				findMates(tree, divs, g)
			}
		})
	}
}

// novelStore returns a store of n moduli, each the product of factors
// 64-bit primes above *next, which it advances past them.
func novelStore(n, factors int, next *uint64) *scanstore.Store {
	primes := primesFrom(*next, factors*n)
	*next = primes[len(primes)-1].Uint64() + 2
	store := scanstore.New()
	for i := 0; i < n; i++ {
		m := new(big.Int).Set(one)
		for _, p := range primes[factors*i : factors*(i+1)] {
			m.Mul(m, p)
		}
		store.AddBareKeyObservation("10.6.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, m)
	}
	return store
}

// BenchmarkIngestBatch: deltas of novel moduli ingested one after
// another into an 8-shard snapshot, reporting the mean sweep and merge
// step per delta from IngestReport.Steps. -benchtime 30x is thirty such
// deltas. The 128-bit semiprimes take the bench's scan_ingest corpus
// (32,768 keys) and deltas of 1 and 4 keys (the fixed cost of an
// ingest), of 16, 32 and 64 (where the cost per key falls as the
// delta's tree amortises each shard product's fold), of 100 (about a
// scan_ingest bridge batch), of 128 (scan_ingest's direct-ingest batch)
// and of 256 (the zscan bridge's largest batch, bridgeBatch). The wide
// case is 4,096 keys of 1,008 bits, each the product of sixteen 64-bit
// primes (the sweep sees only their width; shard products as long as the
// narrow case's), under 128-key deltas whose root, 2,048 limbs, is past
// scaledCrossover: the paper's width, where the delta's tree takes the
// scaled descent.
func BenchmarkIngestBatch(b *testing.B) {
	ctx := context.Background()
	next := uint64(1 << 63)
	for _, c := range []struct {
		corpus, factors int
		deltas          []int
	}{
		{32768, 2, []int{1, 4, 16, 32, 64, 100, 128, 256}},
		{4096, 16, []int{128}},
	} {
		base, err := Build(ctx, BuildInput{Store: novelStore(c.corpus, c.factors, &next), Shards: DefaultShards})
		if err != nil {
			b.Fatal(err)
		}
		for _, delta := range c.deltas {
			b.Run(fmt.Sprintf("keys=%d/bits=%d/delta=%d", c.corpus, 64*c.factors, delta), func(b *testing.B) {
				snap := base
				var sweep, merge time.Duration
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					in := BuildInput{Store: novelStore(delta, c.factors, &next)}
					b.StartTimer()
					var rep IngestReport
					if snap, rep, err = snap.Ingest(ctx, in); err != nil {
						b.Fatal(err)
					}
					if rep.DeltaModuli != delta {
						b.Fatalf("delta %d: %d novel keys, want %d", i, rep.DeltaModuli, delta)
					}
					sweep += rep.Steps.Sweep
					merge += rep.Steps.Merge
				}
				b.ReportMetric(float64(sweep.Microseconds())/1e3/float64(b.N), "sweep_ms")
				b.ReportMetric(float64(merge.Microseconds())/1e3/float64(b.N), "merge_ms")
			})
		}
	}
}

// BenchmarkIngestBatchShared: deltas some of whose keys share a prime
// with a member of a 4,096-key, 8-shard snapshot of 128-bit keys,
// reporting the mean sweep step: 256-key deltas with one key in four
// sharing (the scan_ingest fleet's vulnerable share, in the zscan
// bridge's largest batch) and 1,024-key deltas with every key sharing.
// Batch.ForeignDivisors splits those keys back per shard through a tree
// of their own, the delta's whole tree in the second case; the deltas of
// BenchmarkIngestBatch share nothing and skip the split.
func BenchmarkIngestBatchShared(b *testing.B) {
	const corpus = 4096
	ctx := context.Background()
	members := primesFrom(1<<63, 2*corpus)
	store := scanstore.New()
	for i := 0; i < corpus; i++ {
		store.AddBareKeyObservation("10.6.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, mul(members[2*i], members[2*i+1]))
	}
	base, err := Build(ctx, BuildInput{Store: store, Shards: DefaultShards})
	if err != nil {
		b.Fatal(err)
	}
	next := members[len(members)-1].Uint64() + 2
	used := 0 // member primes taken by earlier deltas
	for _, c := range []struct{ delta, every int }{{256, 4}, {1024, 1}} {
		b.Run(fmt.Sprintf("keys=%d/delta=%d/shared=1in%d", corpus, c.delta, c.every), func(b *testing.B) {
			snap := base
			var sweep time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := primesFrom(next, 2*c.delta)
				next = fresh[len(fresh)-1].Uint64() + 2
				in := scanstore.New()
				for k := 0; k < c.delta; k++ {
					p := fresh[2*k+1]
					if k%c.every == 0 {
						p = members[used%len(members)]
						used++
					}
					in.AddBareKeyObservation("10.6.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, mul(fresh[2*k], p))
				}
				b.StartTimer()
				var rep IngestReport
				if snap, rep, err = snap.Ingest(ctx, BuildInput{Store: in}); err != nil {
					b.Fatal(err)
				}
				if want := (c.delta + c.every - 1) / c.every; rep.DeltaModuli != c.delta || rep.NewFactored != want {
					b.Fatalf("delta %d: %d novel keys, %d factored, want %d and %d", i, rep.DeltaModuli, rep.NewFactored, c.delta, want)
				}
				sweep += rep.Steps.Sweep
			}
			b.ReportMetric(float64(sweep.Microseconds())/1e3/float64(b.N), "sweep_ms")
		})
	}
}

// TestIngestSweepAllocations holds warm ingest sweeps against a
// 4,096-key, 8-shard snapshot of 128-bit keys to allocation budgets.
//
// For a delta of 128 novel keys (scan_ingest's direct-ingest batch) the
// delta's root reduction state is derived once for all eight shard
// products and its tree descended and GCD'd once: about 4,700
// allocations and 0.6 MB a sweep, against about 17,500 and 1.3 MB when
// each shard built its own Reducer and descended and GCD'd the tree
// again. The budget, 8,750, is half of the latter.
//
// A one-key delta makes 157 allocations and 105 KB a sweep (a fresh
// Reducer's constants and a one-leaf tree, mate search included), as
// measured when this case was added; the budget, 235, is half as much
// again, so a change that adds an allocation per leaf or per shard to
// the smallest ingest fails it.
func TestIngestSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const keys = 4096
	next := uint64(1 << 63)
	snap, err := Build(context.Background(), BuildInput{Store: novelStore(keys, 2, &next), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct{ delta, budget uint64 }{{128, 8750}, {1, 235}} {
		moduli, _ := novelStore(int(c.delta), 2, &next).DistinctModuli()
		if _, err := snap.sweep(ctx, moduli); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const calls = 20
		for range calls {
			if _, err := snap.sweep(ctx, moduli); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / calls
		t.Logf("a warm %d-key ingest sweep: %d bytes, %d allocations", c.delta, (after.TotalAlloc-before.TotalAlloc)/calls, allocs)
		if allocs > c.budget {
			t.Errorf("a warm %d-key ingest sweep makes %d allocations, budget %d", c.delta, allocs, c.budget)
		}
	}
}

// sameMap reports whether a and b are one map object, not merely equal.
func sameMap(a, b map[string]struct{}) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestIngestSweep runs the sweep step alone over the single-shard golden
// corpus {N1=p1p2, N2=p1p3, N3=q1q2}: divisors come back index-aligned
// per pass, and each shard names the members being shared with.
func TestIngestSweep(t *testing.T) {
	ctx := context.Background()
	snap := goldenSnapshot(t, 1)
	degenerate := mul(p2, q2) // both primes live in the one shard
	moduli := []*big.Int{mul(q1, s1), mul(s4, s5), mul(s4, s6), degenerate, mul(s2, s3)}
	sw, err := snap.sweep(ctx, moduli)
	if err != nil {
		t.Fatal(err)
	}
	if want := []*big.Int{nil, s4, s4, nil, nil}; !sameInts(sw.own, want) {
		t.Errorf("delta-internal divisors %v, want %v", sw.own, want)
	}
	if want := []*big.Int{q1, nil, nil, degenerate, nil}; !sameInts(sw.byShard[0], want) {
		t.Errorf("shard divisors %v, want %v", sw.byShard[0], want)
	}
	mates := make(map[string]*big.Int)
	for _, m := range sw.mates[0] {
		if m.key != string(m.mod.Bytes()) {
			t.Errorf("mate key %x does not name %v", m.key, m.mod)
		}
		mates[m.mod.Text(16)] = m.divisor
	}
	if len(mates) != 2 || mates[modN1.Text(16)].Cmp(p2) != 0 || mates[modN3.Text(16)].Cmp(q1) != 0 {
		t.Errorf("mates %v, want N1 via p2 and N3 via q1", mates)
	}

	// An empty snapshot has no products to sweep; the delta-internal
	// pass still runs.
	sw, err = Empty(2).sweep(ctx, moduli[1:3])
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(sw.own, []*big.Int{s4, s4}) || sw.byShard[0] != nil || sw.byShard[1] != nil || sw.mates[0] != nil {
		t.Errorf("sweep over an empty snapshot = %+v", sw)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := snap.sweep(cctx, moduli); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep err = %v, want wrapped context.Canceled", err)
	}
	if _, err := snap.sweep(ctx, []*big.Int{moduli[0], moduli[0]}); err == nil {
		t.Error("sweep accepted a repeated modulus")
	}
}

// TestSweepKeyAgrees holds a novel check's sweep of one key (sweepKey)
// to an ingest's sweep of a delta holding it, on random snapshots, and
// both to gcd(N, P) per shard product P: sweepKey's g is gcd(N, ∏ P),
// and when g is N its per-shard divisors are the ingest's, where
// otherwise it gives none. Snapshots have 1 to 8 shards, some empty and
// some of them replicas owning a subset (every delta then holds keys
// homed in unowned shards, foreign to the sweep). Deltas repeat members,
// hold keys with both primes in one shard (degenerate: the divisor is
// N) or split across two shards, share primes among themselves, and
// every fourth delta shares with the corpus throughout.
func TestSweepKeyAgrees(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(52))
	pool := genPrimes(rng, 48)
	corpusPrimes, freshPrimes := pool[:16], pool[16:]
	pick := func(ps []*big.Int) *big.Int { return ps[rng.Intn(len(ps))] }
	key := func(a, b []*big.Int) *big.Int { // of two distinct primes
		for {
			if p, q := pick(a), pick(b); p.Cmp(q) != 0 {
				return mul(p, q)
			}
		}
	}
	seen := make(map[string]int) // how often each kind of divisor came up
	for trial := 0; trial < 60; trial++ {
		store := scanstore.New()
		var members []*big.Int
		for want := 4 + rng.Intn(28); len(members) < want; {
			if n := key(corpusPrimes, corpusPrimes); indexOf(members, n) < 0 {
				members = append(members, n)
				store.AddBareKeyObservation("10.5.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, n)
			}
		}
		in := BuildInput{Store: store, Shards: 1 + rng.Intn(8)}
		if trial%3 == 1 {
			in.OwnShards = []int{}
			for si := 0; si < in.Shards; si++ {
				if rng.Intn(2) == 0 {
					in.OwnShards = append(in.OwnShards, si)
				}
			}
		}
		snap, err := Build(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		var delta []*big.Int
		for want := 1 + rng.Intn(48); len(delta) < want; {
			var n *big.Int
			switch k := rng.Intn(8); {
			case k == 0:
				n = pick(members)
			case k < 3 || trial%4 == 0:
				n = key(corpusPrimes, freshPrimes)
			case k < 5:
				n = key(corpusPrimes, corpusPrimes)
			default:
				n = key(freshPrimes, freshPrimes)
			}
			if indexOf(delta, n) < 0 {
				delta = append(delta, n)
			}
		}
		ingest, err := snap.sweep(ctx, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j, n := range delta {
			check, g := snap.sweepKey(n)
			all := new(big.Int).Set(one) // ∏ P over the shards with a product
			for si, sh := range snap.shards {
				if sh.forest == nil {
					if ingest.byShard[si] != nil || check.byShard[si] != nil {
						t.Fatalf("trial %d shard %d: divisors given for an empty shard", trial, si)
					}
					seen["empty"]++
					continue
				}
				all.Mul(all, sh.product())
				want := []*big.Int{nil}
				if d := new(big.Int).GCD(nil, nil, n, sh.product()); d.Cmp(one) != 0 {
					want[0] = d
				}
				if !sameInts(ingest.byShard[si][j:j+1], want) {
					t.Errorf("trial %d shard %d key %d: ingest divisor %v, want %v", trial, si, j, ingest.byShard[si][j], want[0])
				}
				if got := check.byShard[si]; g.Cmp(n) < 0 || want[0] == nil {
					if got != nil {
						t.Errorf("trial %d shard %d key %d: check divisors %v, want none", trial, si, j, got)
					}
				} else if !sameInts(got, want) {
					t.Errorf("trial %d shard %d key %d: check divisors %v, want %v", trial, si, j, got, want)
				}
			}
			if want := new(big.Int).GCD(nil, nil, n, all); g.Cmp(want) != 0 || !sameInts(check.own, []*big.Int{nil}) {
				t.Errorf("trial %d key %d: g %v and own %v, want %v and none", trial, j, g, check.own, want)
			}
			switch {
			case g.Cmp(one) == 0:
			case g.Cmp(n) < 0:
				seen["proper"]++
			case indexOf(members, n) >= 0:
				seen["member"]++
			case check.divisor(0, n).Cmp(n) == 0:
				seen["degenerate"]++
			default:
				seen["split across shards"]++
			}
			if ingest.own[j] != nil {
				seen["own"]++
			}
		}
		if snap.own != nil && len(snap.Owned()) < len(snap.shards) {
			seen["replica"]++
		}
	}
	t.Logf("divisors and cases seen: %v", seen)
	for _, kind := range []string{"proper", "member", "degenerate", "split across shards", "own", "replica", "empty"} {
		if seen[kind] == 0 {
			t.Errorf("no trial exercised %s; seen %v", kind, seen)
		}
	}
}

// TestIngestResolve feeds resolve hand-made sweep results over the
// single-shard golden corpus and checks every route from divisor to
// Entry: proper divisor, known factorization, mate re-label, and the
// degenerate fallbacks (pairwise, the primes this ingest's splits have
// pooled, the descent of the shard's own tree, and none).
func TestIngestResolve(t *testing.T) {
	snap := goldenSnapshot(t, 1)
	c := certFor(t, 7, "Acme", s2, s3)
	store := scanstore.New()
	if err := store.AddCertObservation("10.9.0.7", date(2013, 6, 1), scanstore.SourceRapid7, scanstore.HTTPS, c); err != nil {
		t.Fatal(err)
	}
	cfp, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	novel := []*big.Int{
		mul(q1, s1), // 0: proper divisor q1 from the shard pass
		mul(s2, s3), // 1: no divisor, but the delta fingerprint knows it
		mul(s4, s5), // 2: clique, delta-internal divisor == N ...
		mul(s5, s6), // 3: ... split pairwise
		mul(s4, s6), // 4
		mul(q2, s1), // 5: shard divisor == N; q2 is pooled from mate N3, s1 from #0
		mul(p2, p3), // 6: shard divisor == N; found among the leaves (N1, N2: factored long ago, nothing pooled)
		mul(r2, r3), // 7: divisor == N that nothing splits: stays a plain member
		mul(r1, s1), // 8: clean
	}
	d := &ingestDelta{shards: []*shardDelta{{}}, novel: novel, served: store.ByModulus()}
	for _, n := range novel {
		d.keys = append(d.keys, string(n.Bytes()))
	}
	sw := &sweepResult{
		own:     []*big.Int{nil, nil, novel[2], novel[3], novel[4], nil, nil, nil, nil},
		byShard: [][]*big.Int{{q1, nil, nil, nil, nil, novel[5], novel[6], novel[7], nil}},
		mates: [][]mate{{
			{key: string(modN3.Bytes()), mod: modN3, divisor: q1},
			{key: string(modN1.Bytes()), mod: modN1, divisor: p2}, // already factored: no new entry
		}},
	}
	in := BuildInput{Store: store, Fingerprint: &fingerprint.Result{
		Factors: map[string]fingerprint.Factors{d.keys[1]: {P: s3, Q: s2}},
		Labels:  map[[32]byte]fingerprint.Label{cfp: {Vendor: "Acme", Method: fingerprint.BySubject}},
	}}
	var rep IngestReport
	snap.resolve(in, d, sw, &rep)

	if rep.Refactored != 1 || rep.NewFactored != 7 {
		t.Errorf("report %+v, want 1 refactored / 7 new factored", rep)
	}
	entries := d.shards[0].newEntries
	factors := func(key string) [2]string {
		e := entries[key]
		return [2]string{e.P.Text(16), e.Q.Text(16)}
	}
	sorted := func(p, q *big.Int) [2]string {
		if p.Cmp(q) > 0 {
			p, q = q, p
		}
		return [2]string{p.Text(16), q.Text(16)}
	}
	for j, pq := range map[int][2]*big.Int{0: {q1, s1}, 2: {s4, s5}, 3: {s5, s6}, 4: {s4, s6}, 5: {q2, s1}, 6: {p2, p3}} {
		if _, ok := entries[d.keys[j]]; !ok {
			t.Errorf("novel %d not factored", j)
		} else if got, want := factors(d.keys[j]), sorted(pq[0], pq[1]); got != want {
			t.Errorf("novel %d factors %v, want %v", j, got, want)
		}
	}
	if e := entries[d.keys[1]]; e.P != s3 || e.Q != s2 || e.Vendor != "Acme" || e.Attribution != "subject" {
		t.Errorf("known factorization entry = %+v, want the fingerprint's factors as given, labeled Acme/subject", e)
	}
	if got, want := factors(string(modN3.Bytes())), sorted(q1, q2); got != want {
		t.Errorf("mate N3 factors %v, want %v", got, want)
	}
	for _, key := range []string{d.keys[7], d.keys[8], string(modN1.Bytes())} {
		if _, ok := entries[key]; ok {
			t.Errorf("%x gained an entry; want unsplittable, clean and already-factored keys left alone", key)
		}
	}
	if len(entries) != 8 {
		t.Errorf("%d new entries, want 8", len(entries))
	}
}

// TestIngestMerge hands merge a prepared delta over a two-shard golden
// snapshot: the untouched shard rides along by pointer, the touched one
// is rebuilt copy-on-write, and the ledger adds up.
func TestIngestMerge(t *testing.T) {
	const shards = 2
	ctx := context.Background()
	snap := goldenSnapshot(t, shards)
	// A novel key homed in N3's shard that shares q1 with it, observed
	// under two identities; N3 itself was shared before and is factored
	// by this delta.
	si := ShardOf(modN3, shards)
	var dm *big.Int
	for _, c := range []*big.Int{s1, s2, s3, s4, s5, s6} {
		if m := mul(q1, c); ShardOf(m, shards) == si {
			dm = m
			break
		}
	}
	if dm == nil {
		t.Fatal("no fixture prime homes q1*c with N3")
	}
	n3Key, dmKey := string(modN3.Bytes()), string(dm.Bytes())
	old := *snap.shards[si]
	old.shared = map[string]int{n3Key: 2}
	snap.shards[si] = &old
	snap.shared = 1

	d := &ingestDelta{shards: make([]*shardDelta, shards), novel: []*big.Int{dm}, keys: []string{dmKey}}
	for i := range d.shards {
		d.shards[i] = &shardDelta{}
	}
	sd := d.shards[si]
	sd.newMods, sd.newKeys = []*big.Int{dm}, []string{dmKey}
	sd.newShared = map[string]int{dmKey: 3}
	sd.entry(n3Key, Entry{P: q1, Q: q2})

	var rep IngestReport
	ns, err := snap.merge(ctx, d, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if ns.shards[1-si] != snap.shards[1-si] || !rep.Shards[1-si].Shared {
		t.Error("untouched shard was not shared by reference")
	}
	nsh := ns.shards[si]
	// A base of a few keys cannot take one more in its overlay: the new
	// key folds into a new base.
	if nsh == &old || nsh.forest == old.forest || sameMap(nsh.members.base, old.members.base) || nsh.members.overlay != nil {
		t.Error("touched shard still shares its membership structures, or kept an overlay past the fold")
	}
	if !nsh.members.has(dmKey) || nsh.members.size() != old.members.size()+1 {
		t.Errorf("touched shard's member set has %d keys (novel key in: %v), want the predecessor's %d plus it", nsh.members.size(), nsh.members.has(dmKey), old.members.size())
	}
	if old.members.has(dmKey) {
		t.Error("merge added the novel key to the predecessor's member set")
	}
	if _, leaked := old.factored[n3Key]; leaked || len(old.shared) != 1 {
		t.Error("merge wrote through to the predecessor shard")
	}
	if e, ok := nsh.factored[n3Key]; !ok || e.P != q1 {
		t.Errorf("re-labeled member missing from the new factored map: %+v", nsh.factored)
	}
	// N3 left the shared map when it was factored; the novel key entered.
	if len(nsh.shared) != 1 || nsh.shared[dmKey] != 3 {
		t.Errorf("shared map = %v, want only the novel key at 3", nsh.shared)
	}
	for _, key := range nsh.cleanSample {
		if key == n3Key || key == dmKey {
			t.Errorf("clean sample kept a factored or shared key %x", key)
		}
	}
	if ns.moduli != snap.moduli+1 || ns.factored != snap.factored+1 || ns.shared != 1 {
		t.Errorf("counts: moduli %d factored %d shared %d", ns.moduli, ns.factored, ns.shared)
	}
	if ns.Generation() <= snap.Generation() {
		t.Error("generation did not advance")
	}
	sr := rep.Shards[si]
	if rep.TouchedShards != 1 || sr.Shared || sr.NewModuli != 1 || sr.NewFactored != 1 || sr.NewShared != 1 {
		t.Errorf("ledger %+v (touched %d), want one touched shard gaining 1/1/1", sr, rep.TouchedShards)
	}
	total, before := 0, 0
	for i, sh := range ns.shards {
		total += sh.forest.Nodes()
		before += snap.shards[i].forest.Nodes()
	}
	if rep.NodesReused+rep.NodesBuilt != total || rep.NodesReused != before || sr.NodesTotal != nsh.forest.Nodes() || rep.NodesBuilt == 0 {
		t.Errorf("node ledger: reused %d (of %d before) + built %d != %d total", rep.NodesReused, before, rep.NodesBuilt, total)
	}

	// Under a base eight times the delta, the new key goes to a fresh
	// overlay and the base stays shared.
	wide := old
	wide.members = memberSet{base: maps.Clone(old.members.base)}
	for i := 0; i < 8; i++ {
		wide.members.base[fmt.Sprint("filler", i)] = struct{}{}
	}
	grown, err := mergeShard(ctx, &wide, sd)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMap(grown.members.base, wide.members.base) || len(grown.members.overlay) != 1 || !grown.members.has(dmKey) || wide.members.has(dmKey) {
		t.Errorf("merge under a wide base: base shared %v, overlay %v", sameMap(grown.members.base, wide.members.base), grown.members.overlay)
	}

	// A re-label alone leaves product and member set shared.
	relabel := &shardDelta{}
	relabel.entry(n3Key, Entry{P: q1, Q: q2})
	only, err := mergeShard(ctx, &old, relabel)
	if err != nil {
		t.Fatal(err)
	}
	if only.forest != old.forest || !sameMap(only.members.base, old.members.base) || only.members.overlay != nil || len(only.shared) != 0 {
		t.Errorf("re-label-only merge rebuilt membership structures: %+v", only)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := snap.merge(cctx, d, new(IngestReport)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled merge err = %v, want wrapped context.Canceled", err)
	}
}
