package scanstore

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func newCert(t testing.TB, seed int64) *certs.Certificate {
	t.Helper()
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(seed)), weakrsa.Options{Bits: 96})
	if err != nil {
		t.Fatal(err)
	}
	c, err := certs.SelfSigned(big.NewInt(seed), certs.Name{CommonName: fmt.Sprintf("dev-%d", seed)},
		time.Unix(0, 0), time.Unix(1<<40, 0), nil, k.N, k.E, k.D)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func TestAddAndStats(t *testing.T) {
	s := New()
	c1, c2 := newCert(t, 1), newCert(t, 2)
	d1, d2 := date(2010, 7, 15), date(2016, 4, 11)

	if err := s.AddCertObservation("10.0.0.1", d1, SourceEFF, HTTPS, c1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCertObservation("10.0.0.2", d1, SourceEFF, HTTPS, c2); err != nil {
		t.Fatal(err)
	}
	// Same host and cert seen again later: a new record, no new cert.
	if err := s.AddCertObservation("10.0.0.1", d2, SourceCensys, HTTPS, c1); err != nil {
		t.Fatal(err)
	}

	st := s.Stats(HTTPS)
	if st.HostRecords != 3 {
		t.Errorf("HostRecords = %d, want 3", st.HostRecords)
	}
	if st.DistinctCerts != 2 {
		t.Errorf("DistinctCerts = %d, want 2", st.DistinctCerts)
	}
	if st.DistinctModuli != 2 {
		t.Errorf("DistinctModuli = %d, want 2", st.DistinctModuli)
	}
	if st.ScanDates != 2 {
		t.Errorf("ScanDates = %d, want 2", st.ScanDates)
	}
	if !st.FirstScan.Equal(d1) || !st.LastScan.Equal(d2) {
		t.Errorf("scan range %v..%v", st.FirstScan, st.LastScan)
	}
}

func TestBareKeysCountTowardModuliOnly(t *testing.T) {
	s := New()
	c := newCert(t, 3)
	s.AddCertObservation("10.0.0.1", date(2015, 10, 29), SourceCensys, HTTPS, c)
	n := big.NewInt(0xABCDEF123457)
	s.AddBareKeyObservation("10.0.0.9", date(2015, 10, 29), SourceCensys, SSH, n)

	all := s.Stats("")
	if all.DistinctModuli != 2 {
		t.Errorf("all-protocol moduli = %d, want 2", all.DistinctModuli)
	}
	if all.DistinctCerts != 1 {
		t.Errorf("certs = %d, want 1 (SSH keys have none)", all.DistinctCerts)
	}
	ssh := s.Stats(SSH)
	if ssh.HostRecords != 1 || ssh.DistinctModuli != 1 || ssh.DistinctCerts != 0 {
		t.Errorf("ssh stats: %+v", ssh)
	}
}

func TestDistinctModuliStableOrder(t *testing.T) {
	s := New()
	n1, n2 := big.NewInt(111115), big.NewInt(222227)
	s.AddBareKeyObservation("a", date(2012, 1, 1), SourcePQ, SSH, n1)
	s.AddBareKeyObservation("b", date(2012, 1, 1), SourcePQ, SSH, n2)
	s.AddBareKeyObservation("c", date(2012, 2, 1), SourcePQ, SSH, n1) // dup
	mods, keys := s.DistinctModuli()
	if len(mods) != 2 || len(keys) != 2 {
		t.Fatalf("got %d moduli", len(mods))
	}
	if mods[0].Cmp(n1) != 0 || mods[1].Cmp(n2) != 0 {
		t.Error("first-seen order violated")
	}
	if keys[0] != string(n1.Bytes()) {
		t.Error("keys not parallel to moduli")
	}
}

func TestScanDatesSorted(t *testing.T) {
	s := New()
	c := newCert(t, 4)
	for _, d := range []time.Time{date(2014, 4, 1), date(2010, 7, 1), date(2012, 6, 1)} {
		s.AddCertObservation("ip", d, SourceEcosystem, HTTPS, c)
	}
	got := s.ScanDates(HTTPS)
	if len(got) != 3 {
		t.Fatalf("dates: %v", got)
	}
	if !got[0].Equal(date(2010, 7, 1)) || !got[2].Equal(date(2014, 4, 1)) {
		t.Errorf("unsorted: %v", got)
	}
	if len(s.ScanDates(SSH)) != 0 {
		t.Error("SSH has no dates")
	}
}

func TestRecordsOn(t *testing.T) {
	s := New()
	c := newCert(t, 5)
	s.AddCertObservation("a", date(2013, 1, 1), SourceRapid7, HTTPS, c)
	s.AddCertObservation("b", date(2013, 1, 1), SourceRapid7, HTTPS, c)
	s.AddCertObservation("c", date(2013, 2, 1), SourceRapid7, HTTPS, c)
	if got := len(s.RecordsOn(date(2013, 1, 1), HTTPS)); got != 2 {
		t.Errorf("records on 2013-01-01 = %d, want 2", got)
	}
	if got := len(s.RecordsOn(date(2013, 3, 1), HTTPS)); got != 0 {
		t.Errorf("records on empty date = %d", got)
	}
}

func TestCertLookup(t *testing.T) {
	s := New()
	c := newCert(t, 6)
	s.AddCertObservation("a", date(2013, 1, 1), SourceRapid7, HTTPS, c)
	fp, _ := c.Fingerprint()
	if got := s.Cert(fp); got == nil || got.N.Cmp(c.N) != 0 {
		t.Error("cert lookup failed")
	}
	if s.Cert([32]byte{1}) != nil {
		t.Error("unknown fingerprint should be nil")
	}
}

func TestByModulusSharedModulus(t *testing.T) {
	s := New()
	// Two certificates with the SAME modulus (the Internet Rimon MITM
	// shape), served from many IPs.
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(7)), weakrsa.Options{Bits: 96})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(serial int64, cn string) *certs.Certificate {
		c, err := certs.SelfSigned(big.NewInt(serial), certs.Name{CommonName: cn},
			time.Unix(0, 0), time.Unix(1, 0), nil, k.N, k.E, k.D)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := mk(1, "router-a"), mk(2, "router-b")
	s.AddCertObservation("198.51.100.2", date(2014, 1, 1), SourceRapid7, HTTPS, c2)
	s.AddCertObservation("198.51.100.1", date(2014, 1, 1), SourceRapid7, HTTPS, c1)
	s.AddCertObservation("198.51.100.1", date(2014, 2, 1), SourceRapid7, HTTPS, c1)

	sv := s.ByModulus()[c1.ModulusKey()]
	if len(sv.Certs) != 2 || sv.Certs[0] != c1 || sv.Certs[1] != c2 {
		t.Errorf("certs with modulus = %v, want c1 then c2", sv.Certs)
	}
	if len(sv.IPs) != 2 || sv.IPs[0] != "198.51.100.1" {
		t.Errorf("IPs: %v", sv.IPs)
	}
}

// randomStore is a seeded store whose certificates share moduli across
// subjects, serials, addresses and months, beside bare keys served over
// SSH and the mail protocols, some on moduli certificates also carry.
// Addresses come from a small pool, so hosts repeat. Some observations
// re-present a stored certificate's pointer, others a fresh copy.
func randomStore(t testing.TB, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	moduli := make([]*big.Int, 24)
	for i := range moduli {
		moduli[i] = new(big.Int).SetUint64(rng.Uint64() | 1)
	}
	pool := make([]*certs.Certificate, 40)
	for i := range pool {
		subject := certs.Name{CommonName: fmt.Sprintf("dev-%d", rng.Intn(6))}
		pool[i] = &certs.Certificate{
			SerialNumber: big.NewInt(int64(rng.Intn(4))), // ties on purpose
			Subject:      subject, Issuer: subject,
			NotBefore: time.Unix(0, 0), NotAfter: time.Unix(int64(1+i), 0),
			N: moduli[rng.Intn(16)], E: 65537,
		}
	}
	ip := func() string { return fmt.Sprintf("10.0.0.%d", rng.Intn(12)) }
	month := func() time.Time { return date(2012+rng.Intn(3), 1+rng.Intn(12), 1) }
	s := New()
	for i := 0; i < 400; i++ {
		c := pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 {
			dup := *c
			c = &dup
		}
		if err := s.AddCertObservation(ip(), month(), SourceRapid7, HTTPS, c); err != nil {
			t.Fatal(err)
		}
	}
	bare := []Protocol{SSH, POP3S, IMAPS, SMTPS}
	for i := 0; i < 150; i++ {
		s.AddBareKeyObservation(ip(), month(), SourceCensys, bare[rng.Intn(len(bare))], moduli[8+rng.Intn(16)])
	}
	return s
}

// TestByModulusMatchesScan holds the one-walk view to a brute-force
// scan per modulus: its certificates from every record's certificate,
// ordered by serial then fingerprint, and its addresses from every
// record, distinct and sorted.
func TestByModulusMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s := randomStore(t, seed)
		view := s.ByModulus()
		_, keys := s.DistinctModuli()
		if len(view) != len(keys) {
			t.Fatalf("seed %d: view holds %d moduli, store %d", seed, len(view), len(keys))
		}
		ties := 0
		for _, key := range keys {
			byFP := make(map[[32]byte]*certs.Certificate)
			ips := make(map[string]bool)
			for _, r := range s.Records() {
				if r.ModKey != key {
					continue
				}
				ips[r.IP] = true
				if r.CertFP != ([32]byte{}) {
					byFP[r.CertFP] = s.Cert(r.CertFP)
				}
			}
			var fps [][32]byte
			for fp := range byFP {
				fps = append(fps, fp)
			}
			sort.Slice(fps, func(i, j int) bool {
				a, b := byFP[fps[i]].SerialNumber.Int64(), byFP[fps[j]].SerialNumber.Int64()
				return a < b || a == b && string(fps[i][:]) < string(fps[j][:])
			})
			var wantCerts []*certs.Certificate
			for i, fp := range fps {
				wantCerts = append(wantCerts, byFP[fp])
				if i > 0 && byFP[fps[i-1]].SerialNumber.Cmp(byFP[fp].SerialNumber) == 0 {
					ties++
				}
			}
			var wantIPs []string
			for a := range ips {
				wantIPs = append(wantIPs, a)
			}
			sort.Strings(wantIPs)
			got := view[key]
			if !slices.Equal(got.Certs, wantCerts) || !slices.Equal(got.IPs, wantIPs) {
				t.Fatalf("seed %d, modulus %x: view %v %v, scan %v %v", seed, key, got.Certs, got.IPs, wantCerts, wantIPs)
			}
		}
		if ties == 0 {
			t.Errorf("seed %d: no two certificates of one modulus share a serial", seed)
		}
		// Fresh copies of a stored certificate add no fingerprint entry.
		if len(s.fps) != len(s.certs) {
			t.Errorf("seed %d: %d fingerprints kept for %d certificates", seed, len(s.fps), len(s.certs))
		}
	}
}

func TestConcurrentAdds(t *testing.T) {
	s := New()
	c := newCert(t, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ip := fmt.Sprintf("10.%d.0.%d", w, i)
				if err := s.AddCertObservation(ip, date(2015, 1, 1), SourceCensys, HTTPS, c); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats(HTTPS)
	if st.HostRecords != 400 {
		t.Errorf("records = %d, want 400", st.HostRecords)
	}
	if st.DistinctCerts != 1 || st.DistinctModuli != 1 {
		t.Errorf("dedup under concurrency broken: %+v", st)
	}
}
