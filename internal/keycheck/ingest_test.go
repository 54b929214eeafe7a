package keycheck

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Fresh fixed primes for delta fixtures — none of them appear in the
// golden corpus.
var (
	s1 = mustHex("e142ea7d17be3111")
	s2 = mustHex("ec1b8ca1f91e1d4d")
	s3 = mustHex("e14ff3d719db3ad1")
	s4 = mustHex("ece66fa2fd5166e7")
	s5 = mustHex("b02b61c4a3d70629")
	s6 = mustHex("e27a984d654821d1")
)

func deltaStore(t *testing.T, mods ...*big.Int) *scanstore.Store {
	t.Helper()
	store := scanstore.New()
	for i, n := range mods {
		store.AddBareKeyObservation("10.9.0.1", date(2013, 6, 1+i), scanstore.SourceRapid7, scanstore.SSH, n)
	}
	return store
}

// TestIngestSharedWithOldCorpus is the core incremental scenario: a
// delta modulus shares one prime with a previously-clean corpus member.
// The delta key must come in factored AND the old member must be
// re-labeled factored (the fold-back), at every shard count.
func TestIngestSharedWithOldCorpus(t *testing.T) {
	dm := new(big.Int).Mul(q1, s1) // shares q1 with clean member N3 = q1*q2
	for _, shards := range []int{1, 2, 4, 8} {
		snap := goldenSnapshot(t, shards)
		ns, rep, err := snap.Ingest(context.Background(), BuildInput{Store: deltaStore(t, dm)})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.DeltaModuli != 1 || rep.NewFactored != 1 || rep.Refactored != 1 {
			t.Errorf("shards=%d: report %+v, want 1 delta / 1 factored / 1 refactored", shards, rep)
		}
		v := ns.Check(dm)
		if v.Status != StatusFactored || !v.Known {
			t.Errorf("shards=%d: delta modulus = %+v, want factored/known", shards, v)
		}
		if v.FactorP != q1.Text(16) && v.FactorQ != q1.Text(16) {
			t.Errorf("shards=%d: delta factors %s,%s lack %s", shards, v.FactorP, v.FactorQ, q1.Text(16))
		}
		v = ns.Check(modN3)
		if v.Status != StatusFactored || !v.Known {
			t.Errorf("shards=%d: old member N3 = %+v, want factored after fold-back", shards, v)
		}
		// The predecessor snapshot must be untouched: N3 still clean there.
		if v := snap.Check(modN3); v.Status != StatusClean {
			t.Errorf("shards=%d: predecessor mutated, N3 = %+v", shards, v)
		}
	}
}

// TestIngestCleanAndCliqueDelta: a clean novel modulus becomes a known
// member, and a prime shared only inside the delta is found by the
// delta-internal batch GCD without touching the old products.
func TestIngestCleanAndCliqueDelta(t *testing.T) {
	clean := new(big.Int).Mul(s2, s3)
	c1 := new(big.Int).Mul(s4, s5)
	c2 := new(big.Int).Mul(s4, s6)
	for _, shards := range []int{1, 3, 8} {
		snap := goldenSnapshot(t, shards)
		ns, rep, err := snap.Ingest(context.Background(), BuildInput{Store: deltaStore(t, clean, c1, c2)})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.DeltaModuli != 3 || rep.NewFactored != 2 || rep.Refactored != 0 {
			t.Errorf("shards=%d: report %+v, want 3 delta / 2 factored / 0 refactored", shards, rep)
		}
		if v := ns.Check(clean); v.Status != StatusClean || !v.Known {
			t.Errorf("shards=%d: clean delta = %+v, want clean/known", shards, v)
		}
		for _, n := range []*big.Int{c1, c2} {
			v := ns.Check(n)
			if v.Status != StatusFactored || !v.Known {
				t.Errorf("shards=%d: clique member = %+v, want factored/known", shards, v)
			}
			if v.FactorP != s4.Text(16) && v.FactorQ != s4.Text(16) {
				t.Errorf("shards=%d: clique factors %s,%s lack %s", shards, v.FactorP, v.FactorQ, s4.Text(16))
			}
		}
	}
}

// TestIngestDegenerateDivisor: the delta modulus is built from two
// corpus primes living in the same (single) shard, so the per-shard GCD
// degenerates to N itself. The primes of the mate split on the way (or,
// had there been none, the shard's own leaves) must still split it, and
// both old members sharing its primes fold back.
func TestIngestDegenerateDivisor(t *testing.T) {
	dm := new(big.Int).Mul(p2, q2) // p2 from N1 (already factored), q2 from N3 (clean)
	snap := goldenSnapshot(t, 1)
	ns, rep, err := snap.Ingest(context.Background(), BuildInput{Store: deltaStore(t, dm)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewFactored != 1 || rep.Refactored != 1 {
		t.Errorf("report %+v, want 1 factored / 1 refactored (N3 only; N1 already factored)", rep)
	}
	v := ns.Check(dm)
	if v.Status != StatusFactored {
		t.Fatalf("degenerate delta = %+v, want factored", v)
	}
	got := map[string]bool{v.FactorP: true, v.FactorQ: true}
	if !got[p2.Text(16)] || !got[q2.Text(16)] {
		t.Errorf("factors %s,%s, want %s,%s", v.FactorP, v.FactorQ, p2.Text(16), q2.Text(16))
	}
	if v := ns.Check(modN3); v.Status != StatusFactored {
		t.Errorf("N3 after degenerate ingest = %+v, want factored", v)
	}
}

// TestIngestDuplicatesOnly: re-ingesting the existing corpus is a no-op
// that returns the receiver itself.
func TestIngestDuplicatesOnly(t *testing.T) {
	snap := goldenSnapshot(t, 4)
	ns, rep, err := snap.Ingest(context.Background(), BuildInput{Store: deltaStore(t, modN1, modN2, modN3)})
	if err != nil {
		t.Fatal(err)
	}
	if ns != snap {
		t.Error("duplicate-only ingest did not return the receiver")
	}
	if rep.Duplicates != 3 || rep.DeltaModuli != 0 || rep.TouchedShards != 0 {
		t.Errorf("report %+v, want 3 duplicates, nothing else", rep)
	}
}

// TestIngestStructuralSharing: after a one-modulus ingest into many
// shards, every untouched shard is the predecessor's by reference and
// the report accounts every reused node.
func TestIngestStructuralSharing(t *testing.T) {
	snap := goldenSnapshot(t, 8)
	dm := new(big.Int).Mul(s2, s3)
	ns, rep, err := snap.Ingest(context.Background(), BuildInput{Store: deltaStore(t, dm)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TouchedShards != 1 {
		t.Fatalf("touched %d shards, want 1", rep.TouchedShards)
	}
	shared := 0
	for si := range snap.shards {
		if ns.shards[si] == snap.shards[si] {
			shared++
			if !rep.Shards[si].Shared {
				t.Errorf("shard %d shared but not reported so", si)
			}
		}
	}
	if shared != 7 {
		t.Errorf("%d shards shared by reference, want 7", shared)
	}
	if rep.NodesReused == 0 {
		t.Error("no nodes reported reused")
	}
	if ns.Generation() <= snap.Generation() {
		t.Errorf("generation did not advance: %d -> %d", snap.Generation(), ns.Generation())
	}
	// Verdicts on the merged snapshot still match the golden semantics.
	if v := ns.Check(modN1); v.Status != StatusFactored || v.Vendor != "Juniper" {
		t.Errorf("N1 after ingest = %+v", v)
	}
	if v := ns.Check(dm); v.Status != StatusClean || !v.Known {
		t.Errorf("ingested clean modulus = %+v", v)
	}
}

// TestIngestForeignMate: on a partial (cluster-replica) snapshot, a
// delta modulus homed in an unowned shard is skipped from the index but
// still rides the GCD sweep — an owned member sharing one of its primes
// must be re-labeled. The owner of the foreign key may share no shard
// with this replica, so the sync feed is the only way the pair ever
// meets here.
func TestIngestForeignMate(t *testing.T) {
	const shards = 4
	ctx := context.Background()
	ownShard := ShardOf(modN3, shards)

	// homedWith brute-forces an odd cofactor so p*c homes inside (owned)
	// or outside the one shard this snapshot owns.
	homedWith := func(p *big.Int, owned bool) *big.Int {
		c := mustHex("c132b11d89ab4e63")
		two := big.NewInt(2)
		for i := 0; i < 1<<14; i++ {
			m := new(big.Int).Mul(p, c)
			if (ShardOf(m, shards) == ownShard) == owned {
				return m
			}
			c.Add(c, two)
		}
		t.Fatalf("no cofactor homes a multiple of %s with owned=%v (shard %d)", p.Text(16), owned, ownShard)
		return nil
	}

	// N3 plus an owned member that shares nothing and must stay clean.
	bystander := homedWith(s3, true)
	snap, err := Build(ctx, BuildInput{Store: deltaStore(t, modN3, bystander), Shards: shards, OwnShards: []int{ownShard}})
	if err != nil {
		t.Fatal(err)
	}

	// A foreign modulus sharing q1 with the owned clean member N3.
	dm := homedWith(q1, false)
	ns, rep, err := snap.Ingest(ctx, BuildInput{Store: deltaStore(t, dm)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.DeltaModuli != 0 || rep.Refactored != 1 || rep.NewFactored != 0 {
		t.Errorf("report %+v, want 1 skipped / 0 delta / 1 refactored", rep)
	}
	if ns == snap {
		t.Fatal("mate re-label did not publish a new snapshot")
	}
	if ns.Moduli() != snap.Moduli() {
		t.Errorf("foreign modulus changed the index size: %d -> %d", snap.Moduli(), ns.Moduli())
	}
	v := ns.Check(modN3)
	if v.Status != StatusFactored || !v.Known {
		t.Fatalf("owned mate N3 = %+v, want factored after the foreign sweep", v)
	}
	if v.FactorP != q1.Text(16) && v.FactorQ != q1.Text(16) {
		t.Errorf("mate factors %s,%s lack the shared prime %s", v.FactorP, v.FactorQ, q1.Text(16))
	}
	if v := ns.Check(dm); v.Known {
		t.Errorf("foreign modulus was indexed: %+v", v)
	}
	// Members answered from the maps agree with a sweep of every product
	// this replica holds, before and after the sync-path re-label.
	for _, n := range []*big.Int{modN3, bystander, dm} {
		wantSweepVerdict(t, snap, n, "before the foreign mate, %s", n.Text(16))
		wantSweepVerdict(t, ns, n, "after the foreign mate, %s", n.Text(16))
	}

	// A foreign modulus sharing nothing with the owned corpus is a pure
	// pass-through: no new snapshot, nothing indexed, nothing re-labeled.
	noop := homedWith(s2, false)
	ns2, rep2, err := ns.Ingest(ctx, BuildInput{Store: deltaStore(t, noop)})
	if err != nil {
		t.Fatal(err)
	}
	if ns2 != ns {
		t.Error("foreign-only clean ingest published a needless snapshot")
	}
	if rep2.Skipped != 1 || rep2.DeltaModuli != 0 || rep2.Refactored != 0 {
		t.Errorf("noop report %+v, want 1 skipped and nothing else", rep2)
	}
}

// TestIngestBothPrimesAmongForeignKeys pins the replica schedule where an
// owned novel key N = p*q shares p with one foreign key of the same delta
// and q with another (a sync page carries all three). The delta batch
// sees N divide the product of the others, no owned shard shares
// anything, and no prime is pooled from the foreign keys, which are
// never split here: only a pairwise GCD against the foreign moduli
// splits N.
func TestIngestBothPrimesAmongForeignKeys(t *testing.T) {
	const shards = 4
	ctx := context.Background()
	n := new(big.Int).Mul(s1, s2)
	ownShard := ShardOf(n, shards)
	// foreignWith brute-forces an odd cofactor, counting up from c, so
	// p*c homes outside the one owned shard.
	foreignWith := func(p *big.Int, c string) *big.Int {
		cof := mustHex(c)
		two := big.NewInt(2)
		for i := 0; i < 1<<14; i++ {
			m := new(big.Int).Mul(p, cof)
			if ShardOf(m, shards) != ownShard {
				return m
			}
			cof.Add(cof, two)
		}
		t.Fatalf("no cofactor homes a multiple of %s outside shard %d", p.Text(16), ownShard)
		return nil
	}
	pr := foreignWith(s1, "c132b11d89ab4e63")
	qs := foreignWith(s2, "d35f0c2b7a91e6c5")

	snap, err := Build(ctx, BuildInput{Store: deltaStore(t, modN3), Shards: shards, OwnShards: []int{ownShard}})
	if err != nil {
		t.Fatal(err)
	}
	ns, rep, err := snap.Ingest(ctx, BuildInput{Store: deltaStore(t, n, pr, qs)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaModuli != 1 || rep.Skipped != 2 || rep.NewFactored != 1 {
		t.Errorf("report %+v, want 1 delta / 2 skipped / 1 factored", rep)
	}
	v := ns.Check(n)
	if v.Status != StatusFactored || !v.Known {
		t.Fatalf("N = %+v, want factored/known", v)
	}
	if got := map[string]bool{v.FactorP: true, v.FactorQ: true}; !got[s1.Text(16)] || !got[s2.Text(16)] {
		t.Errorf("factors %s,%s, want %s,%s", v.FactorP, v.FactorQ, s1.Text(16), s2.Text(16))
	}
	for _, m := range []*big.Int{pr, qs} {
		if v := ns.Check(m); v.Known {
			t.Errorf("foreign modulus %s was indexed: %+v", m.Text(16), v)
		}
	}
}

// TestIngestShardMismatch: re-sharding requires a full rebuild.
func TestIngestShardMismatch(t *testing.T) {
	snap := goldenSnapshot(t, 4)
	_, _, err := snap.Ingest(context.Background(), BuildInput{Store: deltaStore(t, modNc), Shards: 8})
	if err == nil {
		t.Error("mismatched shard count accepted")
	}
	if _, _, err := snap.Ingest(context.Background(), BuildInput{}); err == nil {
		t.Error("nil store accepted")
	}
}

// TestIngestIntoEmpty: the longitudinal loop's first month starts from
// Empty and ingests the whole corpus — equivalent to a fresh Build.
func TestIngestIntoEmpty(t *testing.T) {
	c1 := new(big.Int).Mul(s4, s5)
	c2 := new(big.Int).Mul(s4, s6)
	clean := new(big.Int).Mul(s2, s3)
	ns, rep, err := Empty(4).Ingest(context.Background(), BuildInput{Store: deltaStore(t, c1, c2, clean)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaModuli != 3 || rep.NewFactored != 2 {
		t.Errorf("report %+v, want 3 delta / 2 factored", rep)
	}
	if v := ns.Check(c1); v.Status != StatusFactored || !v.Known {
		t.Errorf("c1 = %+v, want factored/known", v)
	}
	if v := ns.Check(clean); v.Status != StatusClean || !v.Known {
		t.Errorf("clean = %+v, want clean/known", v)
	}
}

// TestIngestBothPrimesAmongFactoredMembers: a novel modulus whose two
// primes each sit in a member that was factored long ago — 12,000
// triples a·b, b·c give 24,000 such members — is convicted with its
// split when checked and comes in factored when ingested, at one shard
// (every shard GCD is the modulus itself, and the only place the split
// can come from is the shard's own leaves) and at eight. The split used
// to be looked for among 4,096 factored entries in map order and given
// up on past that: such a key was indexed clean, for good.
func TestIngestBothPrimesAmongFactoredMembers(t *testing.T) {
	ctx := context.Background()
	const triples, novel = 12000, 10
	primes := primesFrom(1<<40, 3*triples)
	a, b, c := primes[:triples], primes[triples:2*triples], primes[2*triples:]
	store := scanstore.New()
	fp := &fingerprint.Result{Factors: make(map[string]fingerprint.Factors)}
	var union []*big.Int
	member := func(p, q *big.Int) { // p < q
		n := mul(p, q)
		store.AddBareKeyObservation("10.4.0.1", date(2015, 1, 1), scanstore.SourceCensys, scanstore.SSH, n)
		fp.Factors[string(n.Bytes())] = fingerprint.Factors{P: p, Q: q}
		union = append(union, n)
	}
	for i := range a {
		member(a[i], b[i])
		member(b[i], c[i])
	}
	delta := scanstore.New()
	var fresh [][2]*big.Int
	for k := 0; k < novel; k++ {
		p, q := a[k*997%triples], c[(k*7919+13)%triples]
		fresh = append(fresh, [2]*big.Int{p, q})
		n := mul(p, q)
		delta.AddBareKeyObservation("10.4.0.2", date(2015, 2, 1), scanstore.SourceCensys, scanstore.SSH, n)
		union = append(union, n)
	}
	// The one oracle: plain batch GCD over every key ever seen.
	res, err := batchgcd.Factor(union)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, len(res))
	for _, r := range res {
		want[string(union[r.Index].Bytes())] = true
	}
	if len(want) != len(union) {
		t.Fatalf("fixture: batch GCD factors %d of %d keys, want all", len(want), len(union))
	}

	for _, shards := range []int{1, 8} {
		snap, err := Build(ctx, BuildInput{Store: store, Fingerprint: fp, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if snap.Factored() != 2*triples {
			t.Fatalf("shards=%d: %d factored members, want %d", shards, snap.Factored(), 2*triples)
		}
		for _, pq := range fresh {
			n := mul(pq[0], pq[1])
			if v := snap.Check(n); v.Status != StatusSharedFactor || v.Known || v.FactorP != hexOf(pq[0]) || v.FactorQ != hexOf(pq[1]) {
				t.Errorf("shards=%d before ingest: %v·%v = %+v, want shared_factor with the split", shards, pq[0], pq[1], v)
			}
			wantSweepVerdict(t, snap, n, "shards=%d before ingest: %v·%v", shards, pq[0], pq[1])
		}
		ns, rep, err := snap.Ingest(ctx, BuildInput{Store: delta})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DeltaModuli != novel || rep.NewFactored != novel || rep.Refactored != 0 {
			t.Errorf("shards=%d: report %+v, want %d novel keys, all factored, nothing re-labeled", shards, rep, novel)
		}
		for _, pq := range fresh {
			if v := ns.Check(mul(pq[0], pq[1])); v.Status != StatusFactored || !v.Known || v.FactorP != hexOf(pq[0]) || v.FactorQ != hexOf(pq[1]) {
				t.Errorf("shards=%d after ingest: %v·%v = %+v, want factored/known with the split", shards, pq[0], pq[1], v)
			}
		}
		got := 0
		for _, sh := range ns.shards {
			for key, e := range sh.factored {
				got++
				if !want[key] || string(mul(e.P, e.Q).Bytes()) != key {
					t.Errorf("shards=%d: factored entry %x = %v·%v is not batch GCD's", shards, key, e.P, e.Q)
				}
			}
		}
		if got != len(want) {
			t.Errorf("shards=%d: successor holds %d factored keys, batch GCD over the union %d", shards, got, len(want))
		}
	}
}

// TestIngestMateRecordedUnderItsOtherPrime: the novel modulus p·q finds
// p and q in the factored members p·a and q·b, but the delta lists a·z1
// and b·z2 ahead of it, so the mate search records both members under a
// and b — the first divisor that hits them — and neither p nor q is a
// prime any mate or split delta key hands over. The split has to come
// from the shard's own leaves. Sixteen such groups, so that at eight
// shards some have both members in one shard.
func TestIngestMateRecordedUnderItsOtherPrime(t *testing.T) {
	ctx := context.Background()
	const groups = 16
	primes := primesFrom(1<<40, 6*groups)
	store := scanstore.New()
	fp := &fingerprint.Result{Factors: make(map[string]fingerprint.Factors)}
	delta := scanstore.New()
	var fresh [][2]*big.Int
	for i := 0; i < groups; i++ {
		p, a, q, b, z1, z2 := primes[6*i], primes[6*i+1], primes[6*i+2], primes[6*i+3], primes[6*i+4], primes[6*i+5]
		for _, pq := range [][2]*big.Int{{p, a}, {q, b}} {
			n := mul(pq[0], pq[1])
			store.AddBareKeyObservation("10.5.0.1", date(2015, 1, 1), scanstore.SourceCensys, scanstore.SSH, n)
			fp.Factors[string(n.Bytes())] = fingerprint.Factors{P: pq[0], Q: pq[1]}
		}
		for _, pq := range [][2]*big.Int{{a, z1}, {b, z2}, {p, q}} {
			fresh = append(fresh, pq)
			delta.AddBareKeyObservation("10.5.0.2", date(2015, 2, 1), scanstore.SourceCensys, scanstore.SSH, mul(pq[0], pq[1]))
		}
	}
	for _, shards := range []int{1, 8} {
		snap, err := Build(ctx, BuildInput{Store: store, Fingerprint: fp, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ns, rep, err := snap.Ingest(ctx, BuildInput{Store: delta})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DeltaModuli != len(fresh) || rep.NewFactored != len(fresh) || rep.Refactored != 0 {
			t.Errorf("shards=%d: %d novel keys, %d of them factored, %d members re-labeled; want %d, all factored, none re-labeled",
				shards, rep.DeltaModuli, rep.NewFactored, rep.Refactored, len(fresh))
		}
		for _, pq := range fresh {
			if v := ns.Check(mul(pq[0], pq[1])); v.Status != StatusFactored || !v.Known || v.FactorP != hexOf(pq[0]) || v.FactorQ != hexOf(pq[1]) {
				t.Errorf("shards=%d after ingest: %v·%v = %+v, want factored/known with the split", shards, pq[0], pq[1], v)
			}
		}
	}
}

// TestIngestAcrossOverlayFolds ingests deltas of one to three keys into a
// two-shard service until each shard's member set has folded its overlay
// into a new base at least twice, and has answered from a non-empty
// overlay in between. After every step every key ingested so far answers
// Known, wherever it sits; a resubmitted key — one from the first base,
// one from the last delta — counts as a Duplicate; the per-shard modulus
// count in Stats and keycheck_shard_moduli is the union's; and every
// snapshot published earlier still answers as it did.
func TestIngestAcrossOverlayFolds(t *testing.T) {
	const shards, start = 2, 24
	ctx := context.Background()
	primes := primesFrom(1<<41, 2*160)
	keys := make([]*big.Int, len(primes)/2)
	for i := range keys {
		keys[i] = mul(primes[2*i], primes[2*i+1])
	}
	snap, err := Build(ctx, BuildInput{Store: deltaStore(t, keys[:start]...), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	svc := NewService(snap, Config{Metrics: reg, CacheSize: -1})
	history := map[*Snapshot]int{snap: start} // published snapshot → members
	folds, overlaid := make([]int, shards), make([]bool, shards)
	for have := start; have < len(keys); {
		step := min(1+have%3, len(keys)-have)
		delta := append([]*big.Int{keys[0], keys[have-1]}, keys[have:have+step]...)
		prev := svc.Index().Snapshot()
		rep, err := svc.Ingest(ctx, BuildInput{Store: deltaStore(t, delta...)})
		if err != nil {
			t.Fatal(err)
		}
		have += step
		if rep.DeltaModuli != step || rep.Duplicates != 2 {
			t.Fatalf("%d keys: report %+v, want %d novel and 2 duplicates", have, rep, step)
		}
		live := svc.Index().Snapshot()
		history[live] = have
		want := make([]int, shards)
		for _, n := range keys[:have] {
			want[ShardOf(n, shards)]++
			if v := live.Check(n); !v.Known || v.Status != StatusClean {
				t.Fatalf("%d keys: member %s = %+v, want clean/known", have, n.Text(16), v)
			}
		}
		for si, sh := range live.shards {
			if !sameMap(sh.members.base, prev.shards[si].members.base) {
				folds[si]++
			}
			overlaid[si] = overlaid[si] || len(sh.members.overlay) > 0
			gauge := reg.GaugeValue(fmt.Sprintf(`keycheck_shard_moduli{shard="%d"}`, si))
			if got := live.Stats().Shards[si].Moduli; got != want[si] || gauge != float64(want[si]) {
				t.Fatalf("%d keys: shard %d counts %d moduli (gauge %v), want %d", have, si, got, gauge, want[si])
			}
		}
	}
	for si := range folds {
		if folds[si] < 2 || !overlaid[si] {
			t.Errorf("shard %d folded %d times, answered from an overlay: %v; want 2 folds and an overlay", si, folds[si], overlaid[si])
		}
	}
	for old, members := range history {
		for i, n := range keys[:min(members+1, len(keys))] {
			if v := old.Check(n); v.Known != (i < members) {
				t.Fatalf("snapshot of %d members: key %d answers known=%v", members, i, v.Known)
			}
		}
		if old.Moduli() != members {
			t.Errorf("snapshot of %d members now counts %d", members, old.Moduli())
		}
	}
}
