package keycheck

import (
	"context"
	crand "crypto/rand"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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

// TestBuildRejectsNonPositive: a zero modulus in the store made every
// novel key's GCD with its shard's product the key itself, so a build
// over 0 and one member answered a clean novel key shared_factor with
// the key as its divisor. Build now refuses the store, naming the
// modulus, as batchgcd.NewBatch does.
func TestBuildRejectsNonPositive(t *testing.T) {
	for _, c := range []struct {
		moduli []int64
		want   string
	}{
		{[]int64{0, 1000003 * 1000033}, "modulus 0 is not positive"},
		{[]int64{1000003 * 1000033, -35}, "modulus 1 is not positive"},
	} {
		store := scanstore.New()
		for _, n := range c.moduli {
			store.AddBareKeyObservation("10.0.0.1", date(2013, 1, 1), scanstore.SourceRapid7, scanstore.SSH, big.NewInt(n))
		}
		snap, err := Build(context.Background(), BuildInput{Store: store, Shards: 1})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			v := Verdict{}
			if snap != nil {
				v = snap.Check(big.NewInt(1000037 * 1000039))
			}
			t.Errorf("Build over %v: err = %v (novel check %+v), want %q", c.moduli, err, v, c.want)
		}
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
// words): every shard root must come out bit for bit as it went in. The
// novel keys are 64, 128 and 1024 bits wide, so the pooled Reducers are
// retargeted across widths on concurrent readers, and each verdict must
// equal the one the same key got serially before the readers started.
func TestSnapshotSwapUnderReaders(t *testing.T) {
	full := goldenSnapshot(t, 2)

	// The second snapshot drops N1/N2's factorizations: same corpus,
	// nothing factored (a study re-run that lost the GCD results).
	store := scanstore.New()
	store.AddBareKeyObservation("10.0.0.1", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN1)
	store.AddBareKeyObservation("10.0.0.2", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN2)
	store.AddBareKeyObservation("10.0.0.3", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN3)
	// 200 more members make each shard product some 200 words, and four
	// more each hold a 32-bit prime. Half the novel keys share a prime
	// with one of them, and the sweep must find it; half share nothing,
	// and answer whatever the anomaly probes make of them (the close
	// 32-bit pairs fall to Fermat), never shared_factor.
	rng := rand.New(rand.NewSource(9))
	pad := genPrimes(rng, 420)
	for i := 0; i < 200; i++ {
		store.AddBareKeyObservation("10.0.1.1", date(2013, 5, 2), scanstore.SourceRapid7, scanstore.SSH, mul(pad[2*i], pad[2*i+1]))
	}
	var small []*big.Int
	for c := big.NewInt(3<<30 + 1); len(small) < 16; c.Add(c, big.NewInt(2)) {
		if c.ProbablyPrime(20) {
			small = append(small, new(big.Int).Set(c))
		}
	}
	for i := 0; i < 4; i++ {
		store.AddBareKeyObservation("10.0.1.2", date(2013, 5, 2), scanstore.SourceRapid7, scanstore.SSH, mul(small[i], pad[416+i]))
	}
	prime := func(bits int) *big.Int {
		p, err := crand.Prime(rng, bits)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type novelKey struct {
		n, shares *big.Int // shares is nil for a key sharing nothing
	}
	var novel []novelKey
	for i := 0; i < 8; i++ {
		novel = append(novel, novelKey{mul(pad[2*i], pad[400+i]), pad[2*i]}, novelKey{mul(pad[408+i], pad[408+(i+1)%8]), nil})
	}
	for i := 0; i < 4; i++ {
		novel = append(novel, novelKey{mul(small[i], small[4+i]), small[i]}, novelKey{mul(small[8+i], small[12+i]), nil})
	}
	for i := 0; i < 2; i++ {
		novel = append(novel, novelKey{mul(pad[2*i+1], prime(960)), pad[2*i+1]}, novelKey{mul(prime(512), prime(512)), nil})
	}
	empty, err := Build(context.Background(), BuildInput{Store: store, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Verdict, len(novel))
	for k, key := range novel {
		v := empty.Check(key.n)
		if key.shares != nil && (v.Status != StatusSharedFactor || v.Known || v.Divisor != hexOf(key.shares)) {
			t.Fatalf("%d-bit novel key sharing a member's prime = %+v, want shared_factor via %x", key.n.BitLen(), v, key.shares)
		}
		if key.shares == nil {
			status := StatusClean
			switch cls, _, _ := (anomaly.Probe{}).Factor(key.n); cls {
			case anomaly.ProbeFermatWeak:
				status = StatusFermatWeak
			case anomaly.ProbeSmallFactor:
				status = StatusSmallFactor
			}
			if v.Status != status || v.Known {
				t.Fatalf("%d-bit novel key sharing nothing = %+v, want %s/novel", key.n.BitLen(), v, status)
			}
		}
		want[k] = v
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
					if v := empty.Check(novel[k].n); v != want[k] {
						t.Errorf("%d-bit novel key under concurrent readers = %+v, serially %+v", novel[k].n.BitLen(), v, want[k])
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

// TestNovelCheckAllocations holds warm novel checks to their budgets on
// a 4,096-key, 8-shard snapshot of 128-bit keys (shard products of about
// 1,000 words), whose sweep goes through one pooled Reducer with its
// fold scratch and constants outliving the check.
//
// A key sharing one prime with a member is held to a byte budget: a
// fresh Reducer per check allocated about 20,000 bytes a check here,
// most of it fold accumulators of up to half a product's length, and
// the budget is half of that. With the fold constants kept too and the
// split read off one GCD of the residues' product, what is left is
// about 600 bytes: that GCD and the verdict.
//
// A clean key, two independent random 64-bit primes (consecutive ones
// would fall to Fermat), is held to an allocation count: one GCD per
// sweep, fold constants kept across checks and the probes on machine
// words take it from 258 allocations a check to about 50; the budget
// is 155.
func TestNovelCheckAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const keys, calls, sharedBytes, cleanAllocs = 4096, 200, 20000 / 2, 155
	primes := primesFrom(1<<63, 2*keys+1)
	store := scanstore.New()
	for i := 0; i < keys; i++ {
		store.AddBareKeyObservation("10.7.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, mul(primes[2*i], primes[2*i+1]))
	}
	snap, err := Build(context.Background(), BuildInput{Store: store, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4096))
	clean := mul(primesFrom(rng.Uint64()|1<<63, 1)[0], primesFrom(rng.Uint64()|1<<63, 1)[0])
	for _, c := range []struct {
		name string
		n    *big.Int
		want Status
	}{
		{"shared", mul(primes[0], primes[2*keys]), StatusSharedFactor},
		{"clean", clean, StatusClean},
	} {
		if v := snap.Check(c.n); v.Status != c.want || v.Known {
			t.Fatalf("novel %s key = %+v, want %s", c.name, v, c.want)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			snap.Check(c.n)
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / calls
		allocs := (after.Mallocs - before.Mallocs) / calls
		t.Logf("a novel %s check: %d bytes, %d allocations", c.name, bytes, allocs)
		if c.want == StatusSharedFactor && bytes > sharedBytes {
			t.Errorf("a warm novel shared check allocates %d bytes, budget %d", bytes, sharedBytes)
		}
		if c.want == StatusClean && allocs > cleanAllocs {
			t.Errorf("a warm novel clean check makes %d allocations, budget %d", allocs, cleanAllocs)
		}
	}
}

// BenchmarkSnapshotCheckNovel is one novel check at the serving
// benchmark's shape: a snapshot of 32,768 128-bit members in 8 shards
// (shard products of about 8,200 words) and keys no scan has seen,
// eight of each kind in turn. A clean key, two independent random 64-bit
// primes, pays the sweep and the probes; a key sharing a prime with a
// member pays the sweep and the per-shard GCDs.
func BenchmarkSnapshotCheckNovel(b *testing.B) {
	const keys, novel = 32768, 8
	primes := primesFrom(1<<63, 2*keys+novel)
	store := scanstore.New()
	for i := 0; i < keys; i++ {
		store.AddBareKeyObservation("10.7.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, mul(primes[2*i], primes[2*i+1]))
	}
	snap, err := Build(context.Background(), BuildInput{Store: store, Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32768))
	var clean, shared []*big.Int
	for i := 0; i < novel; i++ {
		clean = append(clean, mul(primesFrom(rng.Uint64()|1<<63, 1)[0], primesFrom(rng.Uint64()|1<<63, 1)[0]))
		shared = append(shared, mul(primes[rng.Intn(2*keys)], primes[2*keys+i]))
	}
	for _, c := range []struct {
		name string
		keys []*big.Int
		want Status
	}{{"clean", clean, StatusClean}, {"shared", shared, StatusSharedFactor}} {
		for _, n := range c.keys {
			if v := snap.Check(n); v.Status != c.want || v.Known {
				b.Fatalf("novel %s key = %+v, want %s", c.name, v, c.want)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap.Check(c.keys[i%novel])
			}
		})
	}
}
