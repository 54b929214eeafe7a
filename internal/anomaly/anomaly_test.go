package anomaly

import (
	"context"
	"math/big"
	"math/rand"
	"strconv"
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

	// Negative budgets disable every probe.
	disabled := Probe{FermatSteps: -1, TrialPrimes: -1, RhoSteps: -1}
	if cls, _, _ := disabled.Factor(small.N); cls != ProbeNone {
		t.Errorf("disabled probes still classified %q", cls)
	}
}

// TestProbeDecidesPrimalityOnce pins the structure behind the single
// primality test per probe: Factor itself refuses primes and everything
// below 4, so what it hands to numtheory.SplitComposite is composite;
// and an even modulus is still answered by trial division, which runs
// first, not by rho's even-n shortcut.
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
	trialOnly := Probe{FermatSteps: -1, RhoSteps: -1}
	cls, p, q := trialOnly.Factor(even)
	if cls != ProbeSmallFactor || p.Cmp(big.NewInt(2)) != 0 || q.Cmp(prime) != 0 {
		t.Errorf("trial division on an even modulus: %q, %v, %v", cls, p, q)
	}
	// With trial division disabled Fermat refuses an even n and rho's
	// shortcut reports the 2, as the separate probes always did.
	cls, p, q = Probe{TrialPrimes: -1}.Factor(even)
	if cls != ProbeSmallFactor || p.Cmp(big.NewInt(2)) != 0 || q.Cmp(prime) != 0 {
		t.Errorf("rho on an even modulus: %q, %v, %v", cls, p, q)
	}
	if cls, _, _ := (Probe{TrialPrimes: -1, RhoSteps: -1}).Factor(even); cls != ProbeNone {
		t.Errorf("Fermat alone classified an even modulus %q", cls)
	}
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

	ids := Identities(store, string(shared.N.Bytes()))
	if len(ids) != 3 || ids[0] != "CN=router-a" {
		t.Errorf("shared identities: %v", ids)
	}
	if ids := Identities(store, string(honest.N.Bytes())); len(ids) != 1 {
		t.Errorf("honest identities: %v", ids)
	}
	if ids := Identities(store, string(bare.N.Bytes())); len(ids) != 2 {
		t.Errorf("bare-key identities should fall back to IPs: %v", ids)
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
			if sm.Count != 3 || sm.Hosts != 4 {
				t.Errorf("shared modulus: count %d hosts %d", sm.Count, sm.Hosts)
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

// TestProbeRecallAndPrecisionOnPlantedCorpus holds the default budgets —
// the ones /v1/check probes a novel modulus with — to exact recall and
// zero false hits over 300 seeded moduli: one in five a consecutive-
// prime pair, one in five a first-DefaultTrialPrimes prime times a
// 64-bit prime, the rest two independent 64-bit primes no default
// budget reaches.
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
	smalls := numtheory.FirstPrimes(DefaultTrialPrimes)
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

// BenchmarkProbeFactor measures one whole default-budget probe of a
// novel clean modulus — primality, trial division, the full Fermat
// ascent and all eight rho runs — by modulus width.
func BenchmarkProbeFactor(b *testing.B) {
	for _, bits := range []int{128, 512, 1024, 2048, 4096} {
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
