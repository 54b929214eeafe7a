package anomaly

import (
	"context"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func TestClassifyExponent(t *testing.T) {
	// The oversized case uses 2^80 + 1: parsed certificates carry
	// exponents past int64, and the census must classify them rather
	// than truncate (the ISSUE's census satellite).
	oversized := new(big.Int).Lsh(big.NewInt(1), 80)
	oversized.Add(oversized, big.NewInt(1))
	cases := []struct {
		e    *big.Int
		want ExponentClass
	}{
		{nil, ExponentNonPositive},
		{big.NewInt(0), ExponentNonPositive},
		{big.NewInt(-3), ExponentNonPositive},
		{big.NewInt(1), ExponentOne},
		{big.NewInt(2), ExponentEven},
		{big.NewInt(65536), ExponentEven},
		{new(big.Int).Lsh(big.NewInt(1), 80), ExponentEven}, // even beats oversized
		{big.NewInt(3), ExponentSmall},
		{big.NewInt(17), ExponentSmall},
		{big.NewInt(65535), ExponentSmall},
		{big.NewInt(65537), ExponentOK},
		{big.NewInt(1<<32 - 1), ExponentOK},
		{big.NewInt(1<<32 + 1), ExponentOversized},
		{oversized, ExponentOversized},
	}
	for _, c := range cases {
		if got := ClassifyExponent(c.e); got != c.want {
			t.Errorf("ClassifyExponent(%v) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestCensus(t *testing.T) {
	var c Census
	for _, e := range []int64{65537, 65537, 3, 1, 2} {
		c.Add(big.NewInt(e))
	}
	if c.Total != 5 {
		t.Errorf("Total = %d", c.Total)
	}
	if c.Anomalous() != 3 {
		t.Errorf("Anomalous() = %d, want 3", c.Anomalous())
	}
	if c.Classes[ExponentOK] != 2 || c.Classes[ExponentSmall] != 1 {
		t.Errorf("classes: %v", c.Classes)
	}
}

// testKeys generates one key per anomaly class plus an honest control.
func testKeys(t *testing.T) (honest, close_, small *weakrsa.PrivateKey) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var err error
	if honest, err = weakrsa.GenerateKey(rng, weakrsa.Options{Bits: 128}); err != nil {
		t.Fatal(err)
	}
	if close_, err = weakrsa.GenerateClosePrimes(rng, weakrsa.Options{Bits: 128}); err != nil {
		t.Fatal(err)
	}
	if small, err = weakrsa.GenerateSmallFactor(rng, weakrsa.Options{Bits: 128}, 0); err != nil {
		t.Fatal(err)
	}
	return honest, close_, small
}

func TestProbeFactor(t *testing.T) {
	honest, close_, small := testKeys(t)

	cls, p, q := (Probe{}).Factor(close_.N)
	if cls != ProbeFermatWeak {
		t.Fatalf("close primes: class %q", cls)
	}
	if p.Cmp(close_.P) != 0 || q.Cmp(close_.Q) != 0 {
		t.Errorf("close primes: split %v, %v", p, q)
	}

	cls, p, q = (Probe{}).Factor(small.N)
	if cls != ProbeSmallFactor {
		t.Fatalf("small factor: class %q", cls)
	}
	if new(big.Int).Mul(p, q).Cmp(small.N) != 0 || p.Cmp(bigOne) <= 0 {
		t.Errorf("small factor: split %v, %v is not a nontrivial factorization", p, q)
	}

	if cls, _, _ := (Probe{}).Factor(honest.N); cls != ProbeNone {
		t.Errorf("honest 128-bit modulus flagged %q at default budgets", cls)
	}

	// Guards: nil, non-positive, primes.
	for _, n := range []*big.Int{nil, big.NewInt(0), big.NewInt(-6), big.NewInt(104729)} {
		if cls, _, _ := (Probe{}).Factor(n); cls != ProbeNone {
			t.Errorf("Factor(%v) = %q", n, cls)
		}
	}
}

// TestProbeDecidesPrimalityOnce pins the structure behind the single
// primality test per probe: Factor itself refuses primes and everything
// below 4, so what it hands to numtheory.FermatComposite is composite;
// and an even modulus is answered by the GCD with P_B, which runs first,
// since the Fermat ascent refuses one.
func TestProbeDecidesPrimalityOnce(t *testing.T) {
	prime, err := numtheory.GenPrimeNaive(rand.New(rand.NewSource(11)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*big.Int{prime, big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(-15)} {
		if cls, p, q := (Probe{}).Factor(n); cls != ProbeNone || p != nil || q != nil {
			t.Errorf("Factor(%v) = %q, %v, %v, want no finding", n, cls, p, q)
		}
	}

	even := new(big.Int).Lsh(prime, 1)
	cls, p, q := (Probe{}).Factor(even)
	if cls != ProbeSmallFactor || p.Cmp(big.NewInt(2)) != 0 || q.Cmp(prime) != 0 {
		t.Errorf("GCD step on an even modulus: %q, %v, %v", cls, p, q)
	}
	if p, q := numtheory.FermatComposite(even, DefaultFermatSteps); p != nil {
		t.Errorf("Fermat alone split an even modulus: %v, %v", p, q)
	}
}

// TestProbeSmallFactorBelowBound pins the edges of the GCD step: a prime
// just past 2¹⁹ and one just short of 2²⁰, each times a 108-bit prime,
// moduli that Pollard rho at 8 runs × 256 steps does not split; a
// modulus that divides P_B, which the GCD returns whole and the probe
// splits by its smallest prime; a smooth modulus that is not squarefree;
// and the first prime past 2²⁰, which is out of reach.
func TestProbeSmallFactorBelowBound(t *testing.T) {
	r, _ := new(big.Int).SetString("162259276829213363391578010288167", 10) // NextPrime(2^107)
	mul := func(a int64, b *big.Int) *big.Int { return new(big.Int).Mul(big.NewInt(a), b) }
	for _, c := range []struct {
		name  string
		n     *big.Int
		want  ProbeClass
		wantP *big.Int
	}{
		{"just past 2^19", mul(524341, r), ProbeSmallFactor, big.NewInt(524341)},
		{"just short of 2^20", mul(1048507, r), ProbeSmallFactor, big.NewInt(1048507)},
		{"divides P_B", big.NewInt(3 * 5 * 7 * 11), ProbeSmallFactor, big.NewInt(3)},
		{"divides P_B, large", mul(1048573, big.NewInt(1048571*1048559)), ProbeSmallFactor, big.NewInt(1048559)},
		{"smooth square", big.NewInt(1048573 * 1048573), ProbeSmallFactor, big.NewInt(1048573)},
		{"first prime past 2^20", mul(1048583, r), ProbeNone, nil},
	} {
		cls, p, q := (Probe{}).Factor(c.n)
		if cls != c.want || !sameInt(p, c.wantP) {
			t.Errorf("%s: Factor(%v) = %q, %v, %v, want %q with p = %v", c.name, c.n, cls, p, q, c.want, c.wantP)
		} else if cls != ProbeNone && new(big.Int).Mul(p, q).Cmp(c.n) != 0 {
			t.Errorf("%s: split %v × %v is not %v", c.name, p, q, c.n)
		}
	}
}

// TestPrimorialPrimes pins smoothPrimes as π(2²⁰): the last prime P_B
// takes is below 2²⁰ and the next one is not.
func TestPrimorialPrimes(t *testing.T) {
	primes := numtheory.SmallPrimes(smoothPrimes + 1)
	if last, next := primes[smoothPrimes-1], primes[smoothPrimes]; last >= 1<<20 || next < 1<<20 {
		t.Errorf("prime %d is %d and prime %d is %d: smoothPrimes is not π(2^20)", smoothPrimes, last, smoothPrimes+1, next)
	}
}

// primesBelowB is the oracle's list of the primes below 2²⁰.
var primesBelowB = numtheory.SmallPrimes(smoothPrimes)

// oracleProbe is Factor the slow way: g is the product of the distinct
// primes below 2²⁰ that divide n, found by trial division one prime at a
// time; a g equal to n gives way to n's smallest prime; with no small
// prime, the Fermat ascent decides, through its self-checking entry
// point.
func oracleProbe(n *big.Int) (cls ProbeClass, p, q *big.Int) {
	if n.Sign() <= 0 || n.BitLen() < 2 || n.ProbablyPrime(12) {
		return ProbeNone, nil, nil
	}
	g := big.NewInt(1)
	var smallest *big.Int
	var d, quo, rem big.Int
	for _, prime := range primesBelowB {
		if quo.QuoRem(n, d.SetUint64(prime), &rem); rem.Sign() == 0 {
			g.Mul(g, &d)
			if smallest == nil {
				smallest = new(big.Int).Set(&d)
			}
		}
	}
	if g.Cmp(n) == 0 {
		g = smallest
	}
	if g.Cmp(bigOne) > 0 {
		p, q = g, new(big.Int).Quo(n, g)
		if p.Cmp(q) > 0 {
			p, q = q, p
		}
		return ProbeSmallFactor, p, q
	}
	if p, q = numtheory.FermatFactor(n, DefaultFermatSteps); p != nil {
		return ProbeFermatWeak, p, q
	}
	return ProbeNone, nil, nil
}

// TestProbeMatchesOracle holds Factor to oracleProbe over seeded moduli
// of 16 to 1,024 bits: random integers, products of primes below 2²⁰
// (with repeats, and with nothing else) times a random prime or not,
// primes just past 2²⁰, close primes and clean semiprimes.
func TestProbeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	prime := func(bits int) *big.Int {
		p, err := numtheory.GenPrimeNaive(rng, bits)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small := func() *big.Int {
		if rng.Intn(4) == 0 { // the top of the range
			return new(big.Int).SetUint64(primesBelowB[len(primesBelowB)-1-rng.Intn(64)])
		}
		return new(big.Int).SetUint64(primesBelowB[rng.Intn(len(primesBelowB))])
	}
	var table []*big.Int
	for i := 0; i < 20; i++ {
		bits := []int{16, 64, 128, 256, 1024}[i%5]
		table = append(table, new(big.Int).Rand(rng, new(big.Int).Lsh(bigOne, uint(bits))))
		smooth := small()
		for j := rng.Intn(4); j > 0; j-- {
			smooth.Mul(smooth, small())
		}
		table = append(table, smooth, new(big.Int).Mul(smooth, prime(max(bits, 24))))
		p := prime(max(bits/2, 24))
		table = append(table,
			new(big.Int).Mul(p, numtheory.NextPrime(new(big.Int).Add(p, big.NewInt(1<<20)))),
			new(big.Int).Mul(p, prime(max(bits/2, 24))),
			new(big.Int).Mul(numtheory.NextPrime(big.NewInt(1<<20+int64(rng.Intn(1<<16)))), p))
	}
	// Four goroutines share the table, as Analyze's kernel pool and
	// concurrent checks share P_B and the pooled Reducers.
	const workers = 4
	counts := make([]map[ProbeClass]int, workers)
	var wg sync.WaitGroup
	for w := range counts {
		counts[w] = make(map[ProbeClass]int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(table); i += workers {
				n := table[i]
				wantCls, wantP, wantQ := oracleProbe(n)
				counts[w][wantCls]++
				if cls, p, q := (Probe{}).Factor(n); cls != wantCls || !sameInt(p, wantP) || !sameInt(q, wantQ) {
					t.Errorf("Factor(%v) = %q, %v, %v, oracle %q, %v, %v", n, cls, p, q, wantCls, wantP, wantQ)
				}
			}
		}()
	}
	wg.Wait()
	hits := make(map[ProbeClass]int)
	for _, c := range counts {
		for cls, k := range c {
			hits[cls] += k
		}
	}
	if hits[ProbeSmallFactor] < 40 || hits[ProbeFermatWeak] < 15 || hits[ProbeNone] < 30 {
		t.Errorf("table too tame: %v", hits)
	}
}

// sameInt reports whether a and b are both nil or the same integer.
func sameInt(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

func certWith(t *testing.T, subject certs.Name, n *big.Int, e int) *certs.Certificate {
	t.Helper()
	c := &certs.Certificate{
		SerialNumber: big.NewInt(int64(n.Bits()[0] % 100000)),
		Subject:      subject,
		Issuer:       subject,
		NotBefore:    time.Unix(0, 0),
		NotAfter:     time.Unix(1<<31, 0),
		N:            n,
		E:            e,
	}
	if _, err := c.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIdentitiesAndAnalyze(t *testing.T) {
	honest, close_, small := testKeys(t)
	sharedGroup, err := weakrsa.NewSharedModulusGroup([]byte("fw-1.0"), 128, weakrsa.PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedGroup.Key()

	store := scanstore.New()
	day := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	add := func(ip string, c *certs.Certificate) {
		if err := store.AddCertObservation(ip, day, scanstore.SourceCensys, scanstore.HTTPS, c); err != nil {
			t.Fatal(err)
		}
	}
	// The shared modulus appears under three distinct subjects (and a
	// repeat of one) across four hosts.
	add("10.0.0.1", certWith(t, certs.Name{CommonName: "router-a"}, shared.N, shared.E))
	add("10.0.0.2", certWith(t, certs.Name{CommonName: "router-b"}, shared.N, shared.E))
	add("10.0.0.3", certWith(t, certs.Name{CommonName: "router-c"}, shared.N, shared.E))
	add("10.0.0.4", certWith(t, certs.Name{CommonName: "router-a"}, shared.N, shared.E))
	// The honest modulus under one subject on two hosts: not shared.
	add("10.0.1.1", certWith(t, certs.Name{CommonName: "honest"}, honest.N, honest.E))
	add("10.0.1.2", certWith(t, certs.Name{CommonName: "honest"}, honest.N, honest.E))
	// Probe targets, plus one bad-exponent certificate.
	add("10.0.2.1", certWith(t, certs.Name{CommonName: "fermat"}, close_.N, close_.E))
	add("10.0.2.2", certWith(t, certs.Name{CommonName: "smallfac"}, small.N, 2))
	// A bare key served from two IPs: identities fall back to IPs.
	bare, err := weakrsa.GenerateKey(rand.New(rand.NewSource(8)), weakrsa.Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	store.AddBareKeyObservation("10.0.3.1", day, scanstore.SourceCensys, scanstore.SSH, bare.N)
	store.AddBareKeyObservation("10.0.3.2", day, scanstore.SourceCensys, scanstore.SSH, bare.N)

	view := store.ByModulus()
	ids := identities(view[string(shared.N.Bytes())])
	if len(ids) != 3 || ids[0] != "CN=router-a" {
		t.Errorf("shared identities: %v", ids)
	}
	if ids := identities(view[string(honest.N.Bytes())]); len(ids) != 1 {
		t.Errorf("honest identities: %v", ids)
	}
	if ids := identities(view[string(bare.N.Bytes())]); len(ids) != 2 {
		t.Errorf("bare-key identities should fall back to IPs: %v", ids)
	}
	want := map[string]int{string(shared.N.Bytes()): 3, string(bare.N.Bytes()): 2}
	if got := IdentityCounts(view); !maps.Equal(got, want) {
		t.Errorf("IdentityCounts = %v, want %v", got, want)
	}

	reg := telemetry.New()
	rep, err := Analyze(context.Background(), Config{Store: store, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moduli != 5 {
		t.Errorf("Moduli = %d, want 5", rep.Moduli)
	}
	// Shared: the firmware modulus (3 subjects) and the bare key (2 IPs).
	if rep.SharedCount != 2 || len(rep.SharedModuli) != 2 {
		t.Fatalf("SharedCount = %d, list %v", rep.SharedCount, rep.SharedModuli)
	}
	for _, sm := range rep.SharedModuli {
		if sm.ModulusHex == shared.N.Text(16) {
			if sm.Count != 3 || sm.Hosts != 4 || !slices.Equal(sm.Identities, []string{"CN=router-a", "CN=router-b", "CN=router-c"}) {
				t.Errorf("shared modulus: count %d hosts %d identities %v", sm.Count, sm.Hosts, sm.Identities)
			}
		}
	}
	if rep.FermatWeakCount != 1 || rep.FermatWeak[0].ModulusHex != close_.N.Text(16) {
		t.Errorf("fermat findings: %+v", rep.FermatWeak)
	}
	if rep.SmallFactorCount != 1 || rep.SmallFactor[0].ModulusHex != small.N.Text(16) {
		t.Errorf("small-factor findings: %+v", rep.SmallFactor)
	}
	// Census: 6 distinct certs (the router-a and honest repeats dedupe),
	// one with e=2.
	if rep.Certs != 6 || rep.Exponents.Total != 6 {
		t.Errorf("Certs = %d, census total %d", rep.Certs, rep.Exponents.Total)
	}
	if rep.Exponents.Classes[ExponentEven] != 1 {
		t.Errorf("census classes: %v", rep.Exponents.Classes)
	}
	if rep.Exponents.Anomalous() < 1 {
		t.Errorf("Anomalous() = %d", rep.Exponents.Anomalous())
	}

	if _, err := Analyze(context.Background(), Config{}); err == nil {
		t.Error("nil store accepted")
	}
}

// TestIdentityCountsMatchesScan holds IdentityCounts to a brute-force
// scan of seeded stores: per modulus, the distinct subjects of every
// certificate carrying it, else the distinct addresses of every record
// serving it, counted when there are two or more. Certificates share
// moduli across subjects and months, a subject holds several
// certificates of one modulus, bare keys come over SSH and the mail
// protocols, some on certificate moduli, and addresses repeat.
func TestIdentityCountsMatchesScan(t *testing.T) {
	protos := []scanstore.Protocol{scanstore.HTTPS, scanstore.SSH, scanstore.POP3S, scanstore.IMAPS, scanstore.SMTPS}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		moduli := make([]*big.Int, 20)
		for i := range moduli {
			moduli[i] = new(big.Int).SetUint64(rng.Uint64() | 1)
		}
		store := scanstore.New()
		for i := 0; i < 300; i++ {
			ip := "10.0.0." + strconv.Itoa(rng.Intn(10))
			day := time.Date(2012+rng.Intn(4), time.Month(1+rng.Intn(12)), 1, 0, 0, 0, 0, time.UTC)
			proto := protos[rng.Intn(len(protos))]
			if proto != scanstore.HTTPS {
				store.AddBareKeyObservation(ip, day, scanstore.SourceCensys, proto, moduli[6+rng.Intn(14)])
				continue
			}
			c := certWith(t, certs.Name{CommonName: "dev-" + strconv.Itoa(rng.Intn(4))}, moduli[rng.Intn(12)], 65537)
			c.SerialNumber = big.NewInt(int64(rng.Intn(3))) // one subject, several certificates
			if err := store.AddCertObservation(ip, day, scanstore.SourceRapid7, proto, c); err != nil {
				t.Fatal(err)
			}
		}
		want := make(map[string]int)
		_, keys := store.DistinctModuli()
		for _, key := range keys {
			ids := make(map[string]bool)
			for _, c := range store.DistinctCerts() {
				if c.ModulusKey() == key {
					ids[c.Subject.String()] = true
				}
			}
			if len(ids) == 0 {
				for _, r := range store.Records() {
					if r.ModKey == key {
						ids[r.IP] = true
					}
				}
			}
			if len(ids) >= 2 {
				want[key] = len(ids)
			}
		}
		if got := IdentityCounts(store.ByModulus()); !maps.Equal(got, want) {
			t.Errorf("seed %d: IdentityCounts = %v, scan %v", seed, got, want)
		}
	}
}

// TestProbeRecallAndPrecisionOnPlantedCorpus holds the probe — the one
// /v1/check runs on a novel modulus — to exact recall and zero false
// hits over 300 seeded moduli: one in five a consecutive-prime pair, one
// in five a prime below 2²⁰ times a 64-bit prime, the rest two
// independent 64-bit primes the probe cannot reach.
func TestProbeRecallAndPrecisionOnPlantedCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	prime := func() *big.Int {
		for {
			p := new(big.Int).SetUint64(rng.Uint64() | 1<<63 | 1)
			if p.ProbablyPrime(0) {
				return p
			}
		}
	}
	smalls := numtheory.SmallPrimes(smoothPrimes)
	for i := 0; i < 300; i++ {
		n, want := prime(), ProbeNone
		switch i % 5 {
		case 0:
			n, want = n.Mul(n, numtheory.NextPrime(new(big.Int).Add(n, big.NewInt(2)))), ProbeFermatWeak
		case 1:
			n, want = n.Mul(n, new(big.Int).SetUint64(smalls[rng.Intn(len(smalls))])), ProbeSmallFactor
		default:
			n.Mul(n, prime())
		}
		cls, p, q := (Probe{}).Factor(n)
		if cls != want {
			t.Errorf("modulus %d (%v): class %q, want %q", i, n, cls, want)
		} else if cls != ProbeNone && new(big.Int).Mul(p, q).Cmp(n) != 0 {
			t.Errorf("modulus %d (%v): %q split %v × %v is not a factorization", i, n, cls, p, q)
		}
	}
}

// TestProbeBudgetsHoldAgainstGoldenModuli pins that the default online
// budgets cannot split honestly generated corpus moduli — the property
// the keycheck golden corpus relies on (novel clean submissions must stay
// clean when the check path probes them).
func TestProbeBudgetsHoldAgainstGoldenModuli(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		k, err := weakrsa.GenerateKey(rng, weakrsa.Options{Bits: 128})
		if err != nil {
			t.Fatal(err)
		}
		if cls, p, _ := (Probe{}).Factor(k.N); cls != ProbeNone {
			t.Errorf("honest key %d fell to %q (factor %v)", i, cls, p)
		}
	}
	// And the converse: the close-prime generator's gap stays within the
	// default ascent budget by a wide margin.
	k, err := weakrsa.GenerateClosePrimes(rng, weakrsa.Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := numtheory.FermatFactor(k.N, DefaultFermatSteps); p == nil {
		t.Error("close-prime key out of reach of the default Fermat budget")
	}
}

// benchModuli caches the benchmark inputs per width, so the testing
// package's repeated calls with a growing b.N generate them once.
var benchModuli = map[int][]*big.Int{}

// cleanSemiprimes returns eight honest moduli of the given width, one
// per seed 1-8: two independent GenPrimeNaive primes no default budget
// reaches, the novel-clean key the serving path probes.
func cleanSemiprimes(b *testing.B, bits int) []*big.Int {
	b.Helper()
	if benchModuli[bits] == nil {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, err := numtheory.GenPrimeNaive(rng, bits/2)
			if err != nil {
				b.Fatal(err)
			}
			q, err := numtheory.GenPrimeNaive(rng, bits/2)
			if err != nil {
				b.Fatal(err)
			}
			benchModuli[bits] = append(benchModuli[bits], new(big.Int).Mul(p, q))
		}
	}
	return benchModuli[bits]
}

// BenchmarkProbeFactor measures one whole probe of a novel clean
// modulus — primality, the GCD with P_B and the full Fermat ascent — by
// modulus width. P_B is built before the timer starts.
func BenchmarkProbeFactor(b *testing.B) {
	for _, bits := range []int{128, 256, 512, 1024, 2048, 4096} {
		b.Run(strconv.Itoa(bits), func(b *testing.B) {
			moduli := cleanSemiprimes(b, bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cls, _, _ := (Probe{}).Factor(moduli[i%len(moduli)]); cls != ProbeNone {
					b.Fatalf("clean modulus fell to %q", cls)
				}
			}
		})
	}
}

// BenchmarkPrimorial measures the one-time cost of building P_B, which
// the first probe in a process pays.
func BenchmarkPrimorial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if buildPrimorial().BitLen() < 1_500_000 {
			b.Fatal("P_B is short")
		}
	}
}
