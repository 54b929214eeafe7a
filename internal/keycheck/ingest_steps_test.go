package keycheck

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"reflect"
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

// BenchmarkIngestBatch: 100-key deltas of novel 128-bit semiprimes
// ingested one after another into a 32,768-key, 8-shard snapshot (the
// shape of the bench's scan_ingest corpus), reporting the mean sweep and
// merge step per delta from IngestReport.Steps. -benchtime 30x is thirty
// such deltas.
func BenchmarkIngestBatch(b *testing.B) {
	const corpus, delta = 32768, 100
	next := uint64(1 << 63)
	semiprimes := func(n int) *scanstore.Store {
		primes := primesFrom(next, 2*n)
		next = primes[len(primes)-1].Uint64() + 2
		store := scanstore.New()
		for i := 0; i < n; i++ {
			store.AddBareKeyObservation("10.6.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, mul(primes[2*i], primes[2*i+1]))
		}
		return store
	}
	ctx := context.Background()
	base, err := Build(ctx, BuildInput{Store: semiprimes(corpus), Shards: DefaultShards})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("keys=%d/delta=%d", corpus, delta), func(b *testing.B) {
		snap := base
		var sweep, merge time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			in := BuildInput{Store: semiprimes(delta)}
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
	d := &ingestDelta{shards: []*shardDelta{{}}, novel: novel}
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
