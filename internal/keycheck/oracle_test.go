package keycheck

import (
	"context"
	"math/big"
	"slices"
	"testing"

	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// checkBySweep is the tests' oracle for Snapshot.Check: the body Check
// had while it answered members by arithmetic. It reduces every shard
// product mod n for members and strangers alike and only then asks what
// n is, so a member that Build or Ingest left mislabeled — indexed clean
// while some indexed shard holds one of its primes — comes back
// shared_factor here and clean from Check, and the equality the tests
// assert breaks. Membership is read from the exact set (the Bloom-and-
// residue inference this body used to make was the bug).
func checkBySweep(s *Snapshot, n *big.Int) Verdict {
	key := string(n.Bytes())
	home := shardOf(key, len(s.shards))
	v := Verdict{Status: StatusClean, ModulusBits: n.BitLen(), Shard: home, Partial: !s.owns(home)}
	homeShard := s.shards[home]
	member := homeShard.members.has(key)
	if e, ok := homeShard.factored[key]; ok && member {
		v.Status = StatusFactored
		v.Known = true
		v.FactorP, v.FactorQ = hexOf(e.P), hexOf(e.Q)
		v.Vendor, v.Attribution = e.Vendor, e.Attribution
		return v
	}
	g := new(big.Int).Set(one)
	var proper *big.Int
	r := new(big.Int)
	for si, sh := range s.shards {
		product := sh.product()
		if product == nil {
			continue
		}
		r.Mod(product, n)
		if r.Sign() == 0 {
			if si == home && member {
				v.Known = true
				continue
			}
			g.Set(n)
			continue
		}
		gi := new(big.Int).GCD(nil, nil, n, r)
		if gi.Cmp(one) <= 0 {
			continue
		}
		if gi.Cmp(n) < 0 {
			proper = gi
		}
		g.Mul(g, gi)
		g.GCD(nil, nil, g, n)
	}
	if g.Cmp(one) == 0 {
		if v.Known {
			if cnt, ok := homeShard.shared[key]; ok {
				v.Status = StatusSharedModulus
				v.SharedWith = cnt
			}
			return v
		}
		if cls, p, q := (anomaly.Probe{}).Factor(n); cls != anomaly.ProbeNone {
			switch cls {
			case anomaly.ProbeFermatWeak:
				v.Status = StatusFermatWeak
			case anomaly.ProbeSmallFactor:
				v.Status = StatusSmallFactor
			}
			if p != nil && q != nil {
				if new(big.Int).Mul(p, q).Cmp(n) == 0 {
					v.FactorP, v.FactorQ = hexOf(p), hexOf(q)
				}
				v.Divisor = hexOf(p)
			}
		}
		return v
	}
	v.Status = StatusSharedFactor
	if g.Cmp(n) == 0 && proper == nil {
		proper = divisorByLeafScan(s, n)
	}
	if g.Cmp(n) < 0 {
		proper = g
	}
	if proper != nil {
		p := proper
		q := new(big.Int).Quo(n, p)
		if new(big.Int).Mul(p, q).Cmp(n) == 0 {
			if p.Cmp(q) > 0 {
				p, q = q, p
			}
			v.FactorP, v.FactorQ = hexOf(p), hexOf(q)
		}
	}
	v.Divisor = hexOf(g)
	return v
}

// divisorByLeafScan is the oracle's split for a modulus every shard GCD
// of which was trivial or n itself: the first proper gcd(leaf, n) over
// every leaf of every shard, one GCD per leaf.
func divisorByLeafScan(s *Snapshot, n *big.Int) *big.Int {
	for _, sh := range s.shards {
		for _, leaf := range sh.forest.Leaves() {
			if g := new(big.Int).GCD(nil, nil, leaf, n); g.Cmp(one) > 0 && g.Cmp(n) < 0 {
				return g
			}
		}
	}
	return nil
}

// primesFrom returns the first count primes above start, ascending.
// Baillie-PSW alone (ProbablyPrime(0)) is exact below 2^64; a candidate
// with a factor among the first 168 primes is passed over on words
// first, which saves most of the tests at 64 bits. start must be past
// those primes.
func primesFrom(start uint64, count int) []*big.Int {
	small := numtheory.FirstPrimes(168)
	out := make([]*big.Int, 0, count)
	for c := start | 1; len(out) < count; c += 2 {
		if slices.ContainsFunc(small, func(p uint64) bool { return c%p == 0 }) {
			continue
		}
		if p := new(big.Int).SetUint64(c); p.ProbablyPrime(0) {
			out = append(out, p)
		}
	}
	return out
}

// wantSweepVerdict asserts Check(n) == checkBySweep(n), every field.
func wantSweepVerdict(t *testing.T, s *Snapshot, n *big.Int, format string, args ...any) {
	t.Helper()
	if got, want := s.Check(n), checkBySweep(s, n); got != want {
		t.Errorf(format+": Check %+v, sweep oracle %+v", append(args, got, want)...)
	}
}

// TestNovelProductOfCorpusPrimesIsNeverClean: a submission nobody ever
// scanned, built from two primes the corpus already holds, must be
// convicted however its home shard's membership test is implemented —
// it divides a shard product exactly like a member does, which is how
// the Bloom-and-residue inference took 24 (one shard) and 2 (eight) of
// these 1,984 for clean members. The verdict also names the two primes,
// including where both sit in one shard and every shard GCD is n itself
// (all of them at one shard): no member here is factored, so the split
// can only come from the shard's own leaves.
func TestNovelProductOfCorpusPrimesIsNeverClean(t *testing.T) {
	primes := make([]*big.Int, 0, 64)
	for c := new(big.Int).SetUint64(1<<63 + 1); len(primes) < cap(primes); c.Add(c, big.NewInt(2)) {
		if c.ProbablyPrime(20) {
			primes = append(primes, new(big.Int).Set(c))
		}
	}
	store := scanstore.New()
	member := make(map[string]bool)
	for i := 0; i < len(primes); i += 2 {
		n := mul(primes[i], primes[i+1])
		member[string(n.Bytes())] = true
		store.AddBareKeyObservation("10.3.0.1", date(2015, 1, 1+i/2%28), scanstore.SourceCensys, scanstore.SSH, n)
	}
	for _, shards := range []int{1, 8} {
		// The members are pairwise coprime: the study factored none.
		snap, err := Build(context.Background(), BuildInput{Store: store, Fingerprint: &fingerprint.Result{}, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		novel, wrong := 0, 0
		for i := range primes {
			for j := i + 1; j < len(primes); j++ {
				n := mul(primes[i], primes[j])
				if member[string(n.Bytes())] {
					continue
				}
				novel++
				v := snap.Check(n)
				if v.Status != StatusSharedFactor || v.Known || v.FactorP != hexOf(primes[i]) || v.FactorQ != hexOf(primes[j]) {
					wrong++
					t.Logf("shards=%d: p%d·p%d = %+v", shards, i, j, v)
				}
				wantSweepVerdict(t, snap, n, "shards=%d: p%d·p%d", shards, i, j)
			}
		}
		if novel != 1984 || wrong != 0 {
			t.Errorf("shards=%d: %d of %d novel products of two corpus primes not convicted as novel with their split", shards, wrong, novel)
		}
	}
}

// TestFingerprintlessBuildIgnoresShardCount pins BuildInput.Fingerprint's
// nil contract: without a factor table members are indexed as swept, so
// two members sharing a prime both answer clean — at every shard count,
// not only when their hashes happen to collide into one shard.
func TestFingerprintlessBuildIgnoresShardCount(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 5, 8} {
		snap, err := Build(context.Background(), BuildInput{Store: deltaStore(t, modN1, modN2), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range map[string]*big.Int{"N1": modN1, "N2": modN2} {
			if v := snap.Check(n); v.Status != StatusClean || !v.Known {
				t.Errorf("shards=%d %s = %s/known=%v, want clean/known", shards, name, v.Status, v.Known)
			}
		}
		// The GCD path still serves strangers.
		if v := snap.Check(modNs); v.Status != StatusSharedFactor || v.Known {
			t.Errorf("shards=%d novel Ns = %+v, want shared_factor", shards, v)
		}
	}
}
