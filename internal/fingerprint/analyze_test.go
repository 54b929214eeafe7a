package fingerprint

import (
	"fmt"
	"math/big"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// corpusBuilder assembles a deterministic test corpus.
type corpusBuilder struct {
	t       *testing.T
	factory *population.KeyFactory
	certs   []*certs.Certificate
	serial  int64
}

func newCorpus(t *testing.T) *corpusBuilder {
	return &corpusBuilder{t: t, factory: population.NewKeyFactory(99, 128)}
}

func (b *corpusBuilder) add(p devices.Profile, key *weakrsa.PrivateKey) *certs.Certificate {
	b.t.Helper()
	b.serial++
	id := devices.Identity{IP: fmt.Sprintf("10.0.0.%d", b.serial), Serial: b.serial, Model: p.Model}
	var sans []string
	if p.DNSNames != nil {
		sans = p.DNSNames(id)
	}
	c, err := certs.SelfSigned(big.NewInt(b.serial), p.Subject(id),
		time.Unix(0, 0), time.Unix(1<<40, 0), sans, key.N, key.E, key.D)
	if err != nil {
		b.t.Fatal(err)
	}
	b.certs = append(b.certs, c)
	return c
}

func (b *corpusBuilder) healthy(p devices.Profile) *certs.Certificate {
	b.t.Helper()
	k, err := b.factory.Healthy()
	if err != nil {
		b.t.Fatal(err)
	}
	return b.add(p, k)
}

func (b *corpusBuilder) shared(p devices.Profile, pool string, gen weakrsa.PrimeGen) *certs.Certificate {
	b.t.Helper()
	k, err := b.factory.SharedPrime(pool, gen)
	if err != nil {
		b.t.Fatal(err)
	}
	return b.add(p, k)
}

func (b *corpusBuilder) clique(p devices.Profile, name string) *certs.Certificate {
	b.t.Helper()
	k, err := b.factory.CliqueKey(name, weakrsa.PrimeOpenSSL)
	if err != nil {
		b.t.Fatal(err)
	}
	return b.add(p, k)
}

// analyze runs batch GCD and the fingerprint pipeline over the corpus.
func (b *corpusBuilder) analyze(extra func(*Input)) *Result {
	b.t.Helper()
	seen := make(map[string]bool)
	var moduli []*big.Int
	var keys []string
	for _, c := range b.certs {
		k := c.ModulusKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		moduli = append(moduli, c.N)
		keys = append(keys, k)
	}
	results, err := batchgcd.Factor(moduli)
	if err != nil {
		b.t.Fatal(err)
	}
	div := make(map[string]*big.Int)
	for _, r := range results {
		div[keys[r.Index]] = r.Divisor
	}
	in := Input{Certs: b.certs, Divisors: div, ModulusBits: 128}
	if extra != nil {
		extra(&in)
	}
	return Analyze(in)
}

func fp(t *testing.T, c *certs.Certificate) [32]byte {
	t.Helper()
	f, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSubjectLabeling(t *testing.T) {
	b := newCorpus(t)
	j := b.healthy(devices.ProfileJuniper)
	m := b.healthy(devices.ProfileMcAfee)
	ci := b.healthy(devices.ProfileCisco("RV082"))
	fb := b.healthy(devices.ProfileFritzBox)
	hp := b.healthy(devices.ProfileHP)
	ibm := b.healthy(devices.ProfileIBM)
	res := b.analyze(nil)

	want := []struct {
		c      *certs.Certificate
		vendor string
		model  string
	}{
		{j, "Juniper", ""}, {m, "McAfee", "SnapGear"}, {ci, "Cisco", "RV082"},
		{fb, "Fritz!Box", ""}, {hp, "HP", "iLO"},
	}
	for _, w := range want {
		lbl, ok := res.Labels[fp(t, w.c)]
		if !ok {
			t.Errorf("%s cert unlabeled", w.vendor)
			continue
		}
		if lbl.Vendor != w.vendor || lbl.Model != w.model || lbl.Method != BySubject {
			t.Errorf("got %+v, want %s/%s by subject", lbl, w.vendor, w.model)
		}
	}
	if _, ok := res.Labels[fp(t, ibm)]; ok {
		t.Error("anonymous IBM cert should stay unlabeled without factored clique")
	}
}

func TestSharedPrimeExtrapolation(t *testing.T) {
	b := newCorpus(t)
	// A labeled Fritz!Box cert and an IP-only cert: the first two draws
	// from a fresh pool always share a cohort (cohort sizes are >= 2),
	// so batch GCD links them and the label must propagate.
	b.shared(devices.ProfileFritzBox, "Fritz!Box", weakrsa.PrimeOpenSSL)
	ipOnly := b.shared(devices.ProfileFritzBoxIPOnly, "Fritz!Box", weakrsa.PrimeOpenSSL)
	res := b.analyze(nil)

	lbl, ok := res.Labels[fp(t, ipOnly)]
	if !ok {
		t.Fatal("IP-only certificate not extrapolated")
	}
	if lbl.Vendor != "Fritz!Box" || lbl.Method != BySharedPrime {
		t.Errorf("got %+v", lbl)
	}
}

func TestCliqueDetectionAndAttribution(t *testing.T) {
	b := newCorpus(t)
	var members []*certs.Certificate
	for i := 0; i < 12; i++ {
		members = append(members, b.clique(devices.ProfileIBM, "IBM"))
	}
	siemens := b.clique(devices.ProfileSiemens, "IBM") // the overlap
	b.healthy(devices.GenericProfile("ZyXEL", devices.KeySharedPrime, weakrsa.PrimeNaive))

	cliquePrimes := make(map[string]string)
	for _, p := range b.factory.Clique("IBM").Primes() {
		cliquePrimes[p.String()] = "IBM"
	}
	res := b.analyze(func(in *Input) { in.CliqueVendors = cliquePrimes })

	if len(res.Cliques) != 1 {
		t.Fatalf("cliques detected: %d", len(res.Cliques))
	}
	cl := res.Cliques[0]
	if len(cl.Primes) > weakrsa.IBMCliquePrimes {
		t.Errorf("clique has %d primes, max 9", len(cl.Primes))
	}
	if len(cl.ModKeys) <= len(cl.Primes) {
		t.Error("clique should have more moduli than primes")
	}
	ibmLabeled := 0
	for _, c := range members {
		lbl, ok := res.Labels[fp(t, c)]
		if ok && lbl.Vendor == "IBM" && lbl.Method == ByClique {
			ibmLabeled++
		}
	}
	if ibmLabeled < len(members)-2 {
		t.Errorf("only %d/%d IBM certs attributed", ibmLabeled, len(members))
	}
	// The Siemens cert keeps its subject label; the overlap is recorded.
	lbl := res.Labels[fp(t, siemens)]
	if lbl.Vendor != "Siemens" {
		t.Errorf("Siemens overlap cert relabeled: %+v", lbl)
	}
	if res.PrimeOverlaps[[2]string{"IBM", "Siemens"}] == 0 {
		t.Error("Siemens/IBM overlap not recorded")
	}
}

func TestDellXeroxOverlap(t *testing.T) {
	b := newCorpus(t)
	// Dell Imaging and Xerox share the pool; ensure a shared cohort
	// prime spans vendors by drawing consecutively.
	b.shared(devices.ProfileDellImaging, "Xerox", weakrsa.PrimeNaive)
	b.shared(devices.GenericProfile("Xerox", devices.KeySharedPrime, weakrsa.PrimeNaive), "Xerox", weakrsa.PrimeNaive)
	res := b.analyze(nil)
	if res.PrimeOverlaps[[2]string{"Dell", "Xerox"}] == 0 {
		t.Errorf("Dell/Xerox prime overlap not recorded: %v", res.PrimeOverlaps)
	}
}

func TestOpenSSLClassification(t *testing.T) {
	b := newCorpus(t)
	// Vulnerable OpenSSL-style vendor and vulnerable naive vendor.
	for i := 0; i < 3; i++ {
		b.shared(devices.ProfileInnominate, "Innominate", weakrsa.PrimeOpenSSL)
		b.shared(devices.ProfileJuniper, "Juniper", weakrsa.PrimeNaive)
	}
	// A healthy vendor: no factored keys, so unknown.
	b.healthy(devices.GenericProfile("Fortinet", devices.KeyHealthy, weakrsa.PrimeNaive))
	res := b.analyze(nil)

	if got := res.Vendors["Innominate"].OpenSSL; got != weakrsa.OpenSSLLikely {
		t.Errorf("Innominate classified %v", got)
	}
	if got := res.Vendors["Juniper"].OpenSSL; got != weakrsa.OpenSSLNot {
		t.Errorf("Juniper classified %v (sat %d / %d)", got,
			res.Vendors["Juniper"].PrimesSatisfyingOpenSSL, res.Vendors["Juniper"].PrimesTotal)
	}
	if got := res.Vendors["Fortinet"].OpenSSL; got != weakrsa.OpenSSLUnknown {
		t.Errorf("Fortinet classified %v, want unknown (no private keys)", got)
	}
}

func TestBitErrorDetection(t *testing.T) {
	b := newCorpus(t)
	good := b.shared(devices.ProfileJuniper, "Juniper", weakrsa.PrimeNaive)
	b.shared(devices.ProfileJuniper, "Juniper", weakrsa.PrimeNaive)
	// A corrupted copy of the good modulus, pretending the wire flipped
	// bit 5. Give it a divisor as if batch GCD caught it sharing small
	// factors.
	corrupted := weakrsa.CorruptBits(good.N, 5)
	cc := *good
	cc.N = corrupted
	b.certs = append(b.certs, &cc)

	res := b.analyze(func(in *Input) {
		in.Divisors[string(corrupted.Bytes())] = big.NewInt(3)
	})
	if len(res.BitErrors) != 1 {
		t.Fatalf("bit errors: %d", len(res.BitErrors))
	}
	be := res.BitErrors[0]
	if be.TwinKey != good.ModulusKey() {
		t.Error("twin modulus not found")
	}
	// The corrupted modulus must not be counted as a factored key.
	if _, ok := res.Factors[string(corrupted.Bytes())]; ok {
		t.Error("bit-error modulus treated as factored")
	}
}

func TestMITMDetection(t *testing.T) {
	b := newCorpus(t)
	mitmKey, err := b.factory.Healthy()
	if err != nil {
		t.Fatal(err)
	}
	// Five distinct device certs all carrying the middlebox modulus.
	for i := 0; i < 5; i++ {
		b.add(devices.GenericProfile("ZyXEL", devices.KeySharedPrime, weakrsa.PrimeNaive), mitmKey)
	}
	// Ordinary vendors for contrast.
	b.healthy(devices.ProfileJuniper)
	res := b.analyze(func(in *Input) {
		in.IPCount = map[string]int{string(mitmKey.N.Bytes()): 5}
	})
	if len(res.MITM) != 1 {
		t.Fatalf("MITM suspects: %d", len(res.MITM))
	}
	if res.MITM[0].DistinctCerts != 5 || res.MITM[0].DistinctIPs != 5 {
		t.Errorf("suspect: %+v", res.MITM[0])
	}
}

func TestVendorStatsCounts(t *testing.T) {
	b := newCorpus(t)
	b.shared(devices.ProfileInnominate, "Innominate", weakrsa.PrimeOpenSSL)
	b.shared(devices.ProfileInnominate, "Innominate", weakrsa.PrimeOpenSSL)
	b.healthy(devices.ProfileInnominate)
	res := b.analyze(nil)
	vs := res.Vendors["Innominate"]
	if vs.CertsLabeled != 3 {
		t.Errorf("labeled = %d, want 3", vs.CertsLabeled)
	}
	if vs.VulnCerts != 2 {
		t.Errorf("vulnerable = %d, want 2", vs.VulnCerts)
	}
	if vs.PrimesTotal != 4 {
		t.Errorf("primes = %d, want 4", vs.PrimesTotal)
	}
}

func TestClassifyOpenSSLBoundaries(t *testing.T) {
	if classifyOpenSSL(0, 0) != weakrsa.OpenSSLUnknown {
		t.Error("no data should be unknown")
	}
	if classifyOpenSSL(10, 10) != weakrsa.OpenSSLLikely {
		t.Error("all satisfying should be likely")
	}
	if classifyOpenSSL(1, 10) != weakrsa.OpenSSLNot {
		t.Error("mostly violating should be not")
	}
	if classifyOpenSSL(9, 10) != weakrsa.OpenSSLNot {
		t.Error("any violation rules out OpenSSL")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		Method(0): "unlabeled", BySubject: "subject",
		BySharedPrime: "shared-prime", ByClique: "clique",
	} {
		if m.String() != want {
			t.Errorf("%d: %q", m, m.String())
		}
	}
}

func TestMethodCounts(t *testing.T) {
	b := newCorpus(t)
	b.healthy(devices.ProfileJuniper) // subject-labeled
	b.shared(devices.ProfileFritzBox, "fb", weakrsa.PrimeOpenSSL)
	b.shared(devices.ProfileFritzBoxIPOnly, "fb", weakrsa.PrimeOpenSSL) // extrapolated
	res := b.analyze(nil)
	counts := map[Method]int{}
	for _, lbl := range res.Labels {
		counts[lbl.Method]++
	}
	if counts[BySubject] != 2 {
		t.Errorf("subject-labeled = %d, want 2", counts[BySubject])
	}
	if counts[BySharedPrime] != 1 {
		t.Errorf("shared-prime-labeled = %d, want 1", counts[BySharedPrime])
	}
	if len(res.Vendors) < 2 {
		t.Errorf("vendors = %d", len(res.Vendors))
	}
}

func TestCliqueMajorityFallback(t *testing.T) {
	// Without analyst knowledge (no CliqueVendors), a clique whose
	// members carry subject labels is attributed by majority vote.
	b := newCorpus(t)
	for i := 0; i < 20; i++ {
		b.clique(devices.ProfileSiemens, "X") // all subject-labeled Siemens
	}
	res := b.analyze(nil)
	if len(res.Cliques) != 1 {
		t.Fatalf("cliques: %d", len(res.Cliques))
	}
	// All members already labeled by subject; the majority path runs and
	// records no overlaps (labels agree with the majority vendor).
	if n := res.PrimeOverlaps[[2]string{"Siemens", "Siemens"}]; n != 0 {
		t.Errorf("self-overlap recorded: %d", n)
	}
	// Now an anonymous clique: no labels anywhere, no attribution.
	b2 := newCorpus(t)
	for i := 0; i < 20; i++ {
		b2.clique(devices.ProfileIBM, "Y")
	}
	res2 := b2.analyze(nil)
	if len(res2.Cliques) != 1 {
		t.Fatalf("cliques: %d", len(res2.Cliques))
	}
	for fp := range res2.Labels {
		_ = fp
		t.Error("anonymous clique should stay unlabeled without analyst knowledge")
		break
	}
	// Mixed: one labeled member among anonymous ones -> majority label
	// propagates to the rest via ByClique.
	b3 := newCorpus(t)
	var anon []*certs.Certificate
	for i := 0; i < 20; i++ {
		anon = append(anon, b3.clique(devices.ProfileIBM, "Z"))
	}
	b3.clique(devices.ProfileSiemens, "Z")
	res3 := b3.analyze(nil)
	labeled := 0
	for _, c := range anon {
		if lbl, ok := res3.Labels[fp(t, c)]; ok {
			if lbl.Vendor != "Siemens" || lbl.Method != ByClique {
				t.Errorf("fallback label: %+v", lbl)
			}
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("majority fallback did not propagate")
	}
}

// TestDegenerateSplitByRecoveredPrimes: in a star A = p·x, B = q·y,
// N = p·q batch GCD hands N back its own value, and no other modulus is
// degenerate; the primes A's and B's splits recover must split N.
func TestDegenerateSplitByRecoveredPrimes(t *testing.T) {
	p, _ := new(big.Int).SetString("ffffffffffffffc5", 16)
	q, _ := new(big.Int).SetString("ffffffffffffffad", 16)
	x, _ := new(big.Int).SetString("ffffffffffffffa1", 16)
	y, _ := new(big.Int).SetString("ffffffffffffff4d", 16)
	n := new(big.Int).Mul(p, q)
	moduli := []*big.Int{new(big.Int).Mul(p, x), new(big.Int).Mul(q, y), n}
	results, err := batchgcd.Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	div := make(map[string]*big.Int)
	for _, r := range results {
		div[string(moduli[r.Index].Bytes())] = r.Divisor
	}
	if len(div) != 3 || div[string(n.Bytes())].Cmp(n) != 0 {
		t.Fatalf("batch GCD divisors %v, want all three flagged and N's equal to N", div)
	}
	res := Analyze(Input{Divisors: div, ModulusBits: 128})
	f, ok := res.Factors[string(n.Bytes())]
	if !ok {
		t.Fatalf("N left unfactored; %d moduli factored", len(res.Factors))
	}
	if f.P.Cmp(q) != 0 || f.Q.Cmp(p) != 0 {
		t.Errorf("N = %v·%v, want %v·%v", f.P, f.Q, q, p)
	}
	if len(res.Factors) != 3 || len(res.BitErrors) != 0 {
		t.Errorf("%d factored, %d bit errors; want 3 and 0", len(res.Factors), len(res.BitErrors))
	}
}
