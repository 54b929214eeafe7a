package keycheck

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// The golden corpus: fixed 64-bit primes so every expected verdict —
// including factor hex strings — is a literal in the tests.
//
//	N1 = p1*p2  in corpus (cert, O=Juniper), factored (shares p1 with N2)
//	N2 = p1*p3  in corpus (bare key), factored
//	N3 = q1*q2  in corpus (bare key), clean
//	Ns = p3*r1  novel, shares p3 with the corpus
//	Nc = r2*r3  novel, clean
var (
	p1 = mustHex("cb1a897ef032256b")
	p2 = mustHex("ba5e34293664b321")
	p3 = mustHex("cddf196d1cc15f59")
	q1 = mustHex("901e692504a24c01")
	q2 = mustHex("fad4173adc25ce7b")
	r1 = mustHex("a627d0c250f0d6ab")
	r2 = mustHex("ea9f25957aa3ea13")
	r3 = mustHex("dd7fc43a8a82154d")

	modN1 = new(big.Int).Mul(p1, p2)
	modN2 = new(big.Int).Mul(p1, p3)
	modN3 = new(big.Int).Mul(q1, q2)
	modNs = new(big.Int).Mul(p3, r1)
	modNc = new(big.Int).Mul(r2, r3)
)

func mustHex(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("bad hex: " + s)
	}
	return n
}

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// certFor self-signs a certificate over the modulus p*q with the given
// organization, deriving the private exponent from the factors.
func certFor(t testing.TB, serial int64, org string, p, q *big.Int) *certs.Certificate {
	t.Helper()
	n := new(big.Int).Mul(p, q)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	for _, e := range []int64{65537, 257, 17, 5, 3} {
		d := new(big.Int).ModInverse(big.NewInt(e), phi)
		if d == nil {
			continue
		}
		c, err := certs.SelfSigned(big.NewInt(serial), certs.Name{CommonName: "device", Organization: org},
			date(2012, 1, 1), date(2022, 1, 1), nil, n, int(e), d)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	t.Fatalf("no usable public exponent for %v", n)
	return nil
}

// goldenSnapshot assembles the fixed corpus above into a snapshot.
func goldenSnapshot(t *testing.T, shards int) *Snapshot {
	t.Helper()
	store := scanstore.New()
	c1 := certFor(t, 1, "Juniper", p1, p2)
	if err := store.AddCertObservation("10.0.0.1", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.HTTPS, c1); err != nil {
		t.Fatal(err)
	}
	store.AddBareKeyObservation("10.0.0.2", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN2)
	store.AddBareKeyObservation("10.0.0.3", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN3)

	fp1, err := c1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpr := &fingerprint.Result{
		Factors: map[string]fingerprint.Factors{
			string(modN1.Bytes()): {P: p2, Q: p1},
			string(modN2.Bytes()): {P: p1, Q: p3},
		},
		Labels: map[[32]byte]fingerprint.Label{
			fp1: {Vendor: "Juniper", Method: fingerprint.BySubject},
		},
	}
	snap, err := Build(context.Background(), BuildInput{Store: store, Fingerprint: fpr, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestPartialSnapshotCheck pins the cluster-replica verdict contract: a
// snapshot built with OwnShards answers definitively for moduli homed
// in its shards, marks everything else Partial, and a Partial verdict
// is still allowed to convict — the GCD sweep over the owned products
// is authoritative even when membership is not.
func TestPartialSnapshotCheck(t *testing.T) {
	store := scanstore.New()
	store.AddBareKeyObservation("10.0.0.1", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN1)
	store.AddBareKeyObservation("10.0.0.2", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN2)
	store.AddBareKeyObservation("10.0.0.3", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN3)
	fpr := &fingerprint.Result{Factors: map[string]fingerprint.Factors{
		string(modN1.Bytes()): {P: p2, Q: p1},
		string(modN2.Bytes()): {P: p1, Q: p3},
	}}
	// At 8 shards, N2 homes in shard 6; N1 (shard 2) and N3 (shard 7)
	// live elsewhere.
	own := []int{ShardOf(modN2, 8)}
	snap, err := Build(context.Background(), BuildInput{Store: store, Fingerprint: fpr, Shards: 8, OwnShards: own})
	if err != nil {
		t.Fatal(err)
	}

	// Owned home shard: full membership answer, no Partial.
	v := snap.Check(modN2)
	if v.Status != StatusFactored || !v.Known || v.Partial {
		t.Errorf("owned member N2 = %+v, want factored/known/definitive", v)
	}

	// Unowned home shard, but N1 shares p1 with the owned N2: the GCD
	// sweep convicts it even though membership is unanswerable here.
	v = snap.Check(modN1)
	if v.Status != StatusSharedFactor || v.Known || !v.Partial {
		t.Errorf("unowned member N1 = %+v, want shared_factor/partial", v)
	}
	if v.Divisor != p1.Text(16) {
		t.Errorf("N1 divisor %s, want shared prime %s", v.Divisor, p1.Text(16))
	}
	if v.FactorP != p2.Text(16) || v.FactorQ != p1.Text(16) {
		t.Errorf("N1 recovered factors %s,%s", v.FactorP, v.FactorQ)
	}

	// Unowned home shard and no shared prime: the clean answer is only
	// about the owned products, and Partial says so.
	v = snap.Check(modN3)
	if v.Status != StatusClean || v.Known || !v.Partial {
		t.Errorf("unowned member N3 = %+v, want clean/partial", v)
	}

	if st := snap.Stats(); len(st.Owned) != 1 || st.Owned[0] != own[0] {
		t.Errorf("Stats().Owned = %v, want %v", st.Owned, own)
	}
	// The partial corpus only indexes what it owns.
	if got := snap.Moduli(); got != 1 {
		t.Errorf("partial snapshot moduli = %d, want 1 (N2 only)", got)
	}
}

// TestVerdictSemantics runs the four golden inputs through Check at
// several shard counts: sharding must never change a verdict.
func TestVerdictSemantics(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		snap := goldenSnapshot(t, shards)

		v := snap.Check(modN1)
		if v.Status != StatusFactored || !v.Known {
			t.Errorf("shards=%d: N1 = %+v, want factored/known", shards, v)
		}
		if v.FactorP != p2.Text(16) || v.FactorQ != p1.Text(16) {
			t.Errorf("shards=%d: N1 factors %s,%s", shards, v.FactorP, v.FactorQ)
		}
		if v.Vendor != "Juniper" || v.Attribution != "subject" {
			t.Errorf("shards=%d: N1 vendor %q/%q, want Juniper/subject", shards, v.Vendor, v.Attribution)
		}
		if !v.Compromised() {
			t.Errorf("shards=%d: factored verdict not compromised", shards)
		}

		v = snap.Check(modN2)
		if v.Status != StatusFactored || v.Vendor != "" {
			t.Errorf("shards=%d: N2 = %+v, want factored, no vendor (bare key)", shards, v)
		}

		v = snap.Check(modN3)
		if v.Status != StatusClean || !v.Known {
			t.Errorf("shards=%d: N3 = %+v, want clean/known", shards, v)
		}

		v = snap.Check(modNs)
		if v.Status != StatusSharedFactor || v.Known {
			t.Errorf("shards=%d: Ns = %+v, want shared_factor/novel", shards, v)
		}
		if v.Divisor != p3.Text(16) {
			t.Errorf("shards=%d: Ns divisor %s, want %s", shards, v.Divisor, p3.Text(16))
		}
		if v.FactorP != r1.Text(16) || v.FactorQ != p3.Text(16) {
			t.Errorf("shards=%d: Ns factors %s,%s", shards, v.FactorP, v.FactorQ)
		}

		v = snap.Check(modNc)
		if v.Status != StatusClean || v.Known {
			t.Errorf("shards=%d: Nc = %+v, want clean/novel", shards, v)
		}
	}
}

// TestBothPrimesInCorpus: a novel modulus assembled from two corpus
// primes divides a shard product outright; the index must still call it
// shared_factor and recover the split from the shard's own leaves.
func TestBothPrimesInCorpus(t *testing.T) {
	snap := goldenSnapshot(t, 1)
	n := new(big.Int).Mul(p2, p3) // both known primes, modulus itself novel
	v := snap.Check(n)
	if v.Status != StatusSharedFactor {
		t.Fatalf("p2*p3 = %+v, want shared_factor", v)
	}
	if v.FactorP != p2.Text(16) || v.FactorQ != p3.Text(16) {
		t.Errorf("p2*p3 factors %s,%s, want %s,%s", v.FactorP, v.FactorQ, p2.Text(16), p3.Text(16))
	}
}

func TestBuildNilStore(t *testing.T) {
	if _, err := Build(context.Background(), BuildInput{}); err == nil {
		t.Error("nil store accepted")
	}
}

func TestBuildCancelled(t *testing.T) {
	store := scanstore.New()
	for i := int64(0); i < 64; i++ {
		store.AddBareKeyObservation("10.0.0.1", date(2013, 1, 1), scanstore.SourceRapid7, scanstore.SSH,
			new(big.Int).Add(new(big.Int).Lsh(big.NewInt(i+3), 80), big.NewInt(1)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, BuildInput{Store: store}); err == nil {
		t.Error("cancelled build succeeded")
	}
}

func TestExemplars(t *testing.T) {
	snap := goldenSnapshot(t, 2)
	factored, clean := snap.Exemplars(8)
	if len(factored) != 2 {
		t.Fatalf("factored exemplars: %v", factored)
	}
	if len(clean) != 1 || clean[0] != modN3.Text(16) {
		t.Fatalf("clean exemplars: %v, want [%s]", clean, modN3.Text(16))
	}
	for _, hex := range factored {
		if v := snap.Check(mustHex(hex)); v.Status != StatusFactored {
			t.Errorf("factored exemplar %s answers %s", hex, v.Status)
		}
	}
}

// TestSnapshotSwapUnderReaders hammers Index.Snapshot().Check from many readers
// while a writer swaps between two snapshots with different factored
// sets. Every verdict must be exactly right for one of the two
// published snapshots — never a blend — and the whole test runs under
// -race in CI. The readers also put 1,000 novel checks between them
// through the second snapshot, whose shard products are long enough to
// be folded (prodtree.Reducer reads them through views of their own
// words): every shard root must come out bit for bit as it went in.
func TestSnapshotSwapUnderReaders(t *testing.T) {
	full := goldenSnapshot(t, 2)

	// The second snapshot drops N1/N2's factorizations: same corpus,
	// nothing factored (a study re-run that lost the GCD results).
	store := scanstore.New()
	store.AddBareKeyObservation("10.0.0.1", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN1)
	store.AddBareKeyObservation("10.0.0.2", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN2)
	store.AddBareKeyObservation("10.0.0.3", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN3)
	// 200 more members make each shard product some 200 words. Half the
	// novel keys share a prime with one of them, half share nothing (the
	// probes are off: this is about the sweep).
	pad := genPrimes(rand.New(rand.NewSource(9)), 416)
	for i := 0; i < 200; i++ {
		store.AddBareKeyObservation("10.0.1.1", date(2013, 5, 2), scanstore.SourceRapid7, scanstore.SSH, mul(pad[2*i], pad[2*i+1]))
	}
	var novel []*big.Int
	for i := 0; i < 8; i++ {
		novel = append(novel, mul(pad[2*i], pad[400+i]), mul(pad[408+i], pad[408+(i+1)%8]))
	}
	empty, err := Build(context.Background(), BuildInput{Store: store, Shards: 2,
		Probe: anomaly.Probe{FermatSteps: -1, TrialPrimes: -1, RhoSteps: -1}})
	if err != nil {
		t.Fatal(err)
	}
	rootWords := func() (words [][]big.Word) {
		for _, snap := range []*Snapshot{full, empty} {
			for _, sh := range snap.shards {
				if p := sh.product(); p != nil {
					words = append(words, slices.Clone(p.Bits()))
				}
			}
		}
		return words
	}
	before := rootWords()

	ix := NewIndex(full)
	stop := make(chan struct{})
	var wg, novelDone sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		novelDone.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; ; c++ {
				if c < 125 {
					k := (r*125 + c) % len(novel)
					v := empty.Check(novel[k])
					if k%2 == 0 && (v.Status != StatusSharedFactor || v.Known || v.Divisor != hexOf(pad[k])) {
						t.Errorf("novel key sharing a member's prime = %+v, want shared_factor via %x", v, pad[k])
					}
					if k%2 == 1 && (v.Status != StatusClean || v.Known) {
						t.Errorf("novel key sharing nothing = %+v, want clean/novel", v)
					}
				} else if c == 125 {
					novelDone.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				v := ix.Snapshot().Check(modN1)
				// Valid under `full`: factored. Valid under `empty`:
				// clean but known (member, nothing factored).
				if !(v.Status == StatusFactored && v.Known) && !(v.Status == StatusClean && v.Known) {
					t.Errorf("torn verdict during swap: %+v", v)
					return
				}
				if v.Status == StatusFactored && v.FactorP != p2.Text(16) {
					t.Errorf("factored verdict with wrong factors: %+v", v)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			ix.Swap(empty)
		} else {
			ix.Swap(full)
		}
	}
	novelDone.Wait()
	close(stop)
	wg.Wait()
	if got := ix.Swaps(); got != 200 {
		t.Errorf("swaps = %d, want 200", got)
	}
	for i, after := range rootWords() {
		if !slices.Equal(before[i], after) {
			t.Errorf("shard root %d (%d words) changed under concurrent novel checks", i, len(before[i]))
		}
	}
}

func TestStats(t *testing.T) {
	snap := goldenSnapshot(t, 4)
	st := snap.Stats()
	if st.Moduli != 3 || st.Factored != 2 || len(st.Shards) != 4 {
		t.Fatalf("stats: %+v", st)
	}
	total, factored, productBits := 0, 0, 0
	for _, sh := range st.Shards {
		total += sh.Moduli
		factored += sh.Factored
		productBits += sh.ProductBits
	}
	if total != 3 || factored != 2 {
		t.Errorf("shard totals %d/%d, want 3/2", total, factored)
	}
	// Each 128-bit modulus contributes ~128 bits of product somewhere.
	if productBits < 3*127 {
		t.Errorf("product bits %d, want >= %d", productBits, 3*127)
	}
}
