package analysis

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// fixture builds a tiny hand-labeled corpus:
//
//	dates: d1 < d2 < d3
//	vendorA: ip1 vulnerable on d1,d2, safe on d3 (vuln->safe)
//	         ip2 safe on d1, vulnerable on d2,d3 (safe->vuln)
//	         ip3 vulnerable d1, safe d2, vulnerable d3 (multiple)
//	vendorB: ip4 safe on all dates
type fixture struct {
	store                                               *scanstore.Store
	labels                                              map[[32]byte]fingerprint.Label
	vuln                                                map[string]bool
	d1, d2, d3                                          time.Time
	certVulnA, certSafeA, certVulnA2, certSafeA2, certB *certs.Certificate
}

func mkCert(t *testing.T, seed int64, cn string) *certs.Certificate {
	t.Helper()
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(seed)), weakrsa.Options{Bits: 96})
	if err != nil {
		t.Fatal(err)
	}
	c, err := certs.SelfSigned(big.NewInt(seed), certs.Name{CommonName: cn},
		time.Unix(0, 0), time.Unix(1<<40, 0), nil, k.N, k.E, k.D)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newFixture(t *testing.T) *fixture {
	f := &fixture{
		store:  scanstore.New(),
		labels: make(map[[32]byte]fingerprint.Label),
		vuln:   make(map[string]bool),
		d1:     time.Date(2012, 6, 15, 0, 0, 0, 0, time.UTC),
		d2:     time.Date(2014, 3, 15, 0, 0, 0, 0, time.UTC),
		d3:     time.Date(2014, 5, 15, 0, 0, 0, 0, time.UTC),
	}
	f.certVulnA = mkCert(t, 1, "a-vuln-1")
	f.certVulnA2 = mkCert(t, 2, "a-vuln-2")
	f.certSafeA = mkCert(t, 3, "a-safe-1")
	f.certSafeA2 = mkCert(t, 4, "a-safe-2")
	f.certB = mkCert(t, 5, "b-safe")

	label := func(c *certs.Certificate, vendor string) {
		fp, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		f.labels[fp] = fingerprint.Label{Vendor: vendor, Method: fingerprint.BySubject}
	}
	label(f.certVulnA, "VendorA")
	label(f.certVulnA2, "VendorA")
	label(f.certSafeA, "VendorA")
	label(f.certSafeA2, "VendorA")
	label(f.certB, "VendorB")
	f.vuln[f.certVulnA.ModulusKey()] = true
	f.vuln[f.certVulnA2.ModulusKey()] = true

	add := func(ip string, d time.Time, c *certs.Certificate) {
		if err := f.store.AddCertObservation(ip, d, scanstore.SourceEcosystem, scanstore.HTTPS, c); err != nil {
			t.Fatal(err)
		}
	}
	// ip1: vuln, vuln, safe
	add("ip1", f.d1, f.certVulnA)
	add("ip1", f.d2, f.certVulnA)
	add("ip1", f.d3, f.certSafeA)
	// ip2: safe, vuln, vuln
	add("ip2", f.d1, f.certSafeA2)
	add("ip2", f.d2, f.certVulnA2)
	add("ip2", f.d3, f.certVulnA2)
	// ip3: vuln, safe, vuln
	add("ip3", f.d1, f.certVulnA)
	add("ip3", f.d2, f.certSafeA)
	add("ip3", f.d3, f.certVulnA2)
	// ip4: safe always (vendor B)
	add("ip4", f.d1, f.certB)
	add("ip4", f.d2, f.certB)
	add("ip4", f.d3, f.certB)
	return f
}

func (f *fixture) analyzer() *Analyzer {
	return New(f.store, f.labels, f.vuln)
}

func TestVendorSeries(t *testing.T) {
	a := newFixture(t).analyzer()
	s := a.VendorSeries("VendorA", "")
	if len(s.Dates) != 3 {
		t.Fatalf("dates: %d", len(s.Dates))
	}
	wantTotal := []int{3, 3, 3}
	wantVuln := []int{2, 2, 2}
	for i := range s.Dates {
		if s.Total[i] != wantTotal[i] || s.Vuln[i] != wantVuln[i] {
			t.Errorf("date %d: total %d vuln %d, want %d/%d", i, s.Total[i], s.Vuln[i], wantTotal[i], wantVuln[i])
		}
	}
	b := a.VendorSeries("VendorB", "")
	if b.Total[0] != 1 || b.Vuln[0] != 0 {
		t.Errorf("VendorB: %v %v", b.Total, b.Vuln)
	}
}

func TestAggregateSeries(t *testing.T) {
	a := newFixture(t).analyzer()
	s := a.AggregateSeries()
	for i := range s.Dates {
		if s.Total[i] != 4 {
			t.Errorf("aggregate total[%d] = %d, want 4", i, s.Total[i])
		}
		if s.Vuln[i] != 2 {
			t.Errorf("aggregate vuln[%d] = %d, want 2", i, s.Vuln[i])
		}
		if s.Sources[i] != scanstore.SourceEcosystem {
			t.Errorf("source[%d] = %v", i, s.Sources[i])
		}
	}
}

func TestTransitions(t *testing.T) {
	f := newFixture(t)
	tr := f.analyzer().Transitions("VendorA")
	if tr.EverTotal != 3 {
		t.Errorf("EverTotal = %d, want 3", tr.EverTotal)
	}
	if tr.EverVuln != 3 {
		t.Errorf("EverVuln = %d, want 3", tr.EverVuln)
	}
	// ip1: v->s; ip3: v->s then s->v (multiple); ip2: s->v.
	if tr.VulnToSafe != 2 {
		t.Errorf("VulnToSafe = %d, want 2 (ip1, ip3)", tr.VulnToSafe)
	}
	if tr.SafeToVuln != 2 {
		t.Errorf("SafeToVuln = %d, want 2 (ip2, ip3)", tr.SafeToVuln)
	}
	if tr.Multiple != 1 {
		t.Errorf("Multiple = %d, want 1 (ip3)", tr.Multiple)
	}
	trB := f.analyzer().Transitions("VendorB")
	if trB.EverVuln != 0 || trB.VulnToSafe != 0 {
		t.Errorf("VendorB transitions: %+v", trB)
	}
}

func TestCorpusStats(t *testing.T) {
	f := newFixture(t)
	cs := f.analyzer().CorpusStats()
	if cs.HTTPSHostRecords != 12 {
		t.Errorf("records = %d, want 12", cs.HTTPSHostRecords)
	}
	if cs.DistinctHTTPSCerts != 5 {
		t.Errorf("certs = %d, want 5", cs.DistinctHTTPSCerts)
	}
	if cs.DistinctHTTPSModuli != 5 {
		t.Errorf("moduli = %d, want 5", cs.DistinctHTTPSModuli)
	}
	if cs.VulnerableModuli != 2 {
		t.Errorf("vuln moduli = %d", cs.VulnerableModuli)
	}
	// Vulnerable records: ip1 d1,d2; ip2 d2,d3; ip3 d1,d3 = 6.
	if cs.VulnerableRecords != 6 {
		t.Errorf("vuln records = %d, want 6", cs.VulnerableRecords)
	}
	if cs.VulnerableCerts != 2 {
		t.Errorf("vuln certs = %d, want 2", cs.VulnerableCerts)
	}
}

func TestProtocolBreakdown(t *testing.T) {
	f := newFixture(t)
	// Add an SSH scan with one vulnerable key.
	vulnN := big.NewInt(0xBEEF0001)
	f.vuln[string(vulnN.Bytes())] = true
	sshDate := time.Date(2015, 10, 29, 0, 0, 0, 0, time.UTC)
	f.store.AddBareKeyObservation("s1", sshDate, scanstore.SourceCensys, scanstore.SSH, vulnN)
	f.store.AddBareKeyObservation("s2", sshDate, scanstore.SourceCensys, scanstore.SSH, big.NewInt(0xBEEF0003))

	rows := f.analyzer().ProtocolBreakdown([]scanstore.Protocol{scanstore.HTTPS, scanstore.SSH, scanstore.POP3S})
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Protocol != scanstore.HTTPS || rows[0].TotalHosts != 4 || rows[0].VulnerableHosts != 2 {
		t.Errorf("HTTPS row: %+v", rows[0])
	}
	if rows[1].TotalHosts != 2 || rows[1].VulnerableHosts != 1 {
		t.Errorf("SSH row: %+v", rows[1])
	}
	if rows[2].TotalHosts != 0 || rows[2].VulnerableHosts != 0 {
		t.Errorf("POP3S row should be empty: %+v", rows[2])
	}
}

func TestVendorsList(t *testing.T) {
	a := newFixture(t).analyzer()
	got := a.Vendors()
	if fmt.Sprint(got) != "[VendorA VendorB]" {
		t.Errorf("vendors: %v", got)
	}
}

func TestModelFiltering(t *testing.T) {
	// Model-scoped series: label certs with models and filter.
	store := scanstore.New()
	labels := make(map[[32]byte]fingerprint.Label)
	vuln := map[string]bool{}
	c1 := mkCert(t, 10, "rv082")
	c2 := mkCert(t, 11, "rv120w")
	for i, c := range []*certs.Certificate{c1, c2} {
		fp, _ := c.Fingerprint()
		labels[fp] = fingerprint.Label{Vendor: "Cisco", Model: []string{"RV082", "RV120W"}[i], Method: fingerprint.BySubject}
	}
	d := time.Date(2013, 1, 15, 0, 0, 0, 0, time.UTC)
	store.AddCertObservation("ip1", d, scanstore.SourceEcosystem, scanstore.HTTPS, c1)
	store.AddCertObservation("ip2", d, scanstore.SourceEcosystem, scanstore.HTTPS, c2)
	a := New(store, labels, vuln)
	if s := a.VendorSeries("Cisco", "RV082"); s.Total[0] != 1 {
		t.Errorf("model filter: %v", s.Total)
	}
	if s := a.VendorSeries("Cisco", ""); s.Total[0] != 2 {
		t.Errorf("vendor filter: %v", s.Total)
	}
}

func TestStripIntermediates(t *testing.T) {
	store := scanstore.New()
	labels := make(map[[32]byte]fingerprint.Label)
	// A leaf issued by "Acme Device CA" and the CA cert itself, both at
	// the same IP and date (the Rapid7 recording pattern), plus an
	// unrelated self-signed host.
	leaf := mkCert(t, 30, "acme-router-1")
	leaf.Issuer = certs.Name{CommonName: "Acme Device CA", Organization: "Acme"}
	ca := mkCert(t, 31, "Acme Device CA")
	ca.Subject.Organization = "Acme"
	ca.Issuer = ca.Subject
	self := mkCert(t, 32, "self-signed-host")

	d := time.Date(2014, 6, 15, 0, 0, 0, 0, time.UTC)
	for _, c := range []*certs.Certificate{leaf, ca} {
		if err := store.AddCertObservation("ip1", d, scanstore.SourceRapid7, scanstore.HTTPS, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.AddCertObservation("ip2", d, scanstore.SourceRapid7, scanstore.HTTPS, self); err != nil {
		t.Fatal(err)
	}
	// The same CA cert alone at a third IP (no leaf naming it there):
	// nothing to reconstruct, so it stays.
	if err := store.AddCertObservation("ip3", d, scanstore.SourceRapid7, scanstore.HTTPS, ca); err != nil {
		t.Fatal(err)
	}

	got := StripIntermediates(store)
	if len(got) != 3 {
		t.Fatalf("records after stripping = %d, want 3", len(got))
	}
	caFP, _ := ca.Fingerprint()
	for _, r := range got {
		if r.IP == "ip1" && r.CertFP == caFP {
			t.Error("intermediate kept at ip1")
		}
	}
	a := New(store, labels, nil)
	s := a.AggregateSeries()
	if s.Total[0] != 3 {
		t.Errorf("aggregate total = %d, want 3 (intermediate excluded)", s.Total[0])
	}
}

func TestLargestVulnDrop(t *testing.T) {
	mk := func(y, m int) time.Time { return time.Date(y, time.Month(m), 15, 0, 0, 0, 0, time.UTC) }
	s := Series{
		Dates: []time.Time{mk(2014, 2), mk(2014, 3), mk(2014, 4), mk(2014, 5)},
		Vuln:  []int{50, 55, 54, 30},
		Total: []int{100, 100, 100, 100},
	}
	from, to, drop := LargestVulnDrop(s)
	if drop != 24 || !from.Equal(mk(2014, 4)) || !to.Equal(mk(2014, 5)) {
		t.Errorf("drop %d between %v and %v", drop, from, to)
	}
	// A series with no decline yields zero.
	s2 := Series{Dates: s.Dates, Vuln: []int{1, 2, 3, 4}, Total: s.Total}
	if _, _, d := LargestVulnDrop(s2); d != 0 {
		t.Errorf("monotone series drop = %d", d)
	}
	if _, _, d := LargestVulnDrop(Series{}); d != 0 {
		t.Errorf("empty series drop = %d", d)
	}
}
