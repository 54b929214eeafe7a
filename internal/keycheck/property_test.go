package keycheck

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// genPrimes returns n distinct 64-bit probable primes from a seeded
// source, so every trial is reproducible from the test's constants.
func genPrimes(rng *rand.Rand, n int) []*big.Int {
	out := make([]*big.Int, 0, n)
	seen := make(map[uint64]bool)
	for len(out) < n {
		c := rng.Uint64() | 1<<63 | 1
		if seen[c] {
			continue
		}
		seen[c] = true
		p := new(big.Int).SetUint64(c)
		if p.ProbablyPrime(20) {
			out = append(out, p)
		}
	}
	return out
}

// TestIngestEquivalenceProperty is the tentpole invariant, randomized:
// Build(full corpus) and Build(old) → Ingest(delta) must produce
// identical verdicts for every corpus modulus, across shard counts,
// split points and prime-sharing densities — including empty old
// corpora, delta-internal cliques, cross-boundary shared primes and
// duplicated observations. Ground truth comes from the generated
// primes, so both paths are also checked against what the answer must
// actually be. Runs under -race in CI.
func TestIngestEquivalenceProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20160805))
	sharedPool := genPrimes(rng, 24)
	fresh := genPrimes(rng, 400)
	nextFresh := 0
	freshPrime := func() *big.Int {
		p := fresh[nextFresh%len(fresh)]
		nextFresh++
		return p
	}

	shardCounts := []int{1, 2, 3, 5, 8}
	for trial := 0; trial < 10; trial++ {
		shards := shardCounts[trial%len(shardCounts)]
		nMod := 20 + rng.Intn(60)

		// Generate the corpus: ~40% of moduli draw both primes from a
		// small shared pool (cliques and cross-split sharing), the rest
		// are clean semiprimes from single-use primes.
		type genMod struct {
			n    *big.Int
			p, q *big.Int
		}
		var mods []genMod
		seen := make(map[string]bool)
		for len(mods) < nMod {
			var p, q *big.Int
			if rng.Float64() < 0.4 {
				p = sharedPool[rng.Intn(len(sharedPool))]
				q = sharedPool[rng.Intn(len(sharedPool))]
				if p.Cmp(q) == 0 {
					continue
				}
			} else {
				p, q = freshPrime(), freshPrime()
			}
			n := new(big.Int).Mul(p, q)
			key := string(n.Bytes())
			if seen[key] {
				continue
			}
			seen[key] = true
			mods = append(mods, genMod{n: n, p: p, q: q})
		}

		// Ground truth: a modulus is weak iff one of its primes appears
		// in another corpus modulus.
		sharedWithin := func(set []genMod) map[int]bool {
			uses := make(map[string]int)
			for _, m := range set {
				uses[m.p.String()]++
				uses[m.q.String()]++
			}
			weak := make(map[int]bool)
			for i, m := range set {
				if uses[m.p.String()] > 1 || uses[m.q.String()] > 1 {
					weak[i] = true
				}
			}
			return weak
		}
		// factorsFor builds the study-fingerprint factor table a Build
		// over the given subset would have been handed.
		factorsFor := func(set []genMod) *fingerprint.Result {
			weak := sharedWithin(set)
			fp := &fingerprint.Result{Factors: make(map[string]fingerprint.Factors)}
			for i := range weak {
				m := set[i]
				fp.Factors[string(m.n.Bytes())] = fingerprint.Factors{P: m.p, Q: m.q}
			}
			return fp
		}
		storeFor := func(set []genMod) *scanstore.Store {
			st := scanstore.New()
			for i, m := range set {
				st.AddBareKeyObservation("10.1.0.1", date(2016, 1, 1+i%28), scanstore.SourceCensys, scanstore.SSH, m.n)
			}
			return st
		}

		oldN := rng.Intn(nMod + 1) // 0 (everything is delta) .. nMod (pure duplicates)
		old, delta := mods[:oldN], mods[oldN:]

		full, err := Build(ctx, BuildInput{Store: storeFor(mods), Fingerprint: factorsFor(mods), Shards: shards})
		if err != nil {
			t.Fatalf("trial %d: full build: %v", trial, err)
		}

		var base *Snapshot
		if oldN == 0 {
			base = Empty(shards)
		} else {
			base, err = Build(ctx, BuildInput{Store: storeFor(old), Fingerprint: factorsFor(old), Shards: shards})
			if err != nil {
				t.Fatalf("trial %d: old build: %v", trial, err)
			}
		}
		// The delta re-observes a few old moduli on top of the new ones:
		// the ingest must count them as duplicates, not corrupt anything.
		deltaSet := append([]genMod(nil), delta...)
		for i := 0; i < 3 && i < oldN; i++ {
			deltaSet = append(deltaSet, old[rng.Intn(oldN)])
		}
		var inc *Snapshot
		if len(deltaSet) == 0 {
			inc = base
		} else {
			inc, _, err = base.Ingest(ctx, BuildInput{Store: storeFor(deltaSet)})
			if err != nil {
				t.Fatalf("trial %d: ingest: %v", trial, err)
			}
		}

		weak := sharedWithin(mods)
		for i, m := range mods {
			wantSweepVerdict(t, full, m.n, "trial %d modulus %d built", trial, i)
			wantSweepVerdict(t, inc, m.n, "trial %d (shards=%d, old=%d/%d) modulus %d ingested", trial, shards, oldN, nMod, i)
			vf := full.Check(m.n)
			vi := inc.Check(m.n)
			if vf.Status != vi.Status || vf.Known != vi.Known {
				t.Fatalf("trial %d (shards=%d, old=%d/%d) modulus %d: full=%q/%v incremental=%q/%v",
					trial, shards, oldN, nMod, i, vf.Status, vf.Known, vi.Status, vi.Known)
			}
			wantStatus := StatusClean
			if weak[i] {
				wantStatus = StatusFactored
			}
			if vi.Status != wantStatus || !vi.Known {
				t.Fatalf("trial %d modulus %d: verdict %q/%v, ground truth %q/known",
					trial, i, vi.Status, vi.Known, wantStatus)
			}
			if weak[i] {
				wantF := map[string]bool{m.p.Text(16): true, m.q.Text(16): true}
				if !wantF[vi.FactorP] || !wantF[vi.FactorQ] || vi.FactorP == vi.FactorQ {
					t.Fatalf("trial %d modulus %d: incremental factors %s,%s, want {%s,%s}",
						trial, i, vi.FactorP, vi.FactorQ, m.p.Text(16), m.q.Text(16))
				}
				if !wantF[vf.FactorP] || !wantF[vf.FactorQ] || vf.FactorP == vf.FactorQ {
					t.Fatalf("trial %d modulus %d: full factors %s,%s, want {%s,%s}",
						trial, i, vf.FactorP, vf.FactorQ, m.p.Text(16), m.q.Text(16))
				}
			}
		}
		// Non-member probes agree too: a novel modulus sharing a pool
		// prime, and a fully clean one.
		probe := new(big.Int).Mul(sharedPool[rng.Intn(len(sharedPool))], freshPrime())
		vf, vi := full.Check(probe), inc.Check(probe)
		if vf.Status != vi.Status || vf.Known != vi.Known {
			t.Fatalf("trial %d shared probe: full=%q/%v incremental=%q/%v", trial, vf.Status, vf.Known, vi.Status, vi.Known)
		}
		cleanProbe := new(big.Int).Mul(freshPrime(), freshPrime())
		vf, vi = full.Check(cleanProbe), inc.Check(cleanProbe)
		if vf.Status != StatusClean || vi.Status != StatusClean || vf.Known || vi.Known {
			t.Fatalf("trial %d clean probe: full=%q/%v incremental=%q/%v", trial, vf.Status, vf.Known, vi.Status, vi.Known)
		}
	}
}
