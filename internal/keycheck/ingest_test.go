package keycheck

import (
	"context"
	"math/big"
	"testing"

	"github.com/factorable/weakkeys/internal/scanstore"
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
// degenerates to N itself. The mate scan plus recovered-prime pool must
// still split it, and both old members sharing its primes fold back.
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
