package population

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"testing"

	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// testSim runs a scaled-down ecosystem quickly.
func testSim(t *testing.T, scale float64, mitm, bitErr float64, other bool) (*Simulation, *scanstore.Store) {
	t.Helper()
	sim, err := New(Config{
		Seed:           42,
		KeyBits:        128,
		Scale:          scale,
		MITMRate:       mitm,
		BitErrorRate:   bitErr,
		OtherProtocols: other,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := scanstore.New()
	if err := sim.Run(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	return sim, store
}

func TestSimTracksTargets(t *testing.T) {
	sim, _ := testSim(t, 0.2, 0, 0, false)
	lines := sim.Lines()
	for li, line := range lines {
		series := sim.TruthSeries(li)
		for _, ms := range []string{"2012-06", "2014-03", "2016-04"} {
			m := MustMonth(ms)
			wantT := int(line.Total.Eval(m)*0.2 + 0.5)
			wantV := int(line.Vuln.Eval(m)*0.2 + 0.5)
			if wantV > wantT {
				wantV = wantT
			}
			gotT, gotV := series.Total[m], series.Vuln[m]
			// Flips can wobble counts within the month; allow slack of 2
			// or 15%.
			if diff(gotT, wantT) > maxi(2, wantT*15/100) {
				t.Errorf("line %d (%s) %s: total %d, want ~%d", li, line.Profile.Vendor, ms, gotT, wantT)
			}
			if diff(gotV, wantV) > maxi(2, wantV*15/100) {
				t.Errorf("line %d (%s) %s: vuln %d, want ~%d", li, line.Profile.Vendor, ms, gotV, wantV)
			}
		}
	}
}

func diff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSimObservationsLandInEras(t *testing.T) {
	_, store := testSim(t, 0.1, 0, 0, false)
	bySource := make(map[scanstore.Source]int)
	for _, r := range store.Records() {
		bySource[r.Source]++
	}
	for _, src := range []scanstore.Source{scanstore.SourceEFF, scanstore.SourcePQ,
		scanstore.SourceEcosystem, scanstore.SourceRapid7, scanstore.SourceCensys} {
		if bySource[src] == 0 {
			t.Errorf("no observations from %s", src)
		}
	}
	// Ecosystem era (20 scans) must dominate EFF (2 scans).
	if bySource[scanstore.SourceEcosystem] <= bySource[scanstore.SourceEFF] {
		t.Error("era record volumes implausible")
	}
}

func TestSimScanGaps(t *testing.T) {
	// No scans between the eras: e.g. 2011-01..2011-09 and 2012-01..2012-05.
	if _, ok := SourceFor(MustMonth("2011-03")); ok {
		t.Error("2011-03 had no scan")
	}
	if _, ok := SourceFor(MustMonth("2012-03")); ok {
		t.Error("2012-03 had no scan")
	}
	if src, ok := SourceFor(MustMonth("2014-04")); !ok || src != scanstore.SourceRapid7 {
		t.Errorf("2014-04 should be Rapid7, got %v %v", src, ok)
	}
	if src, ok := SourceFor(MustMonth("2016-04")); !ok || src != scanstore.SourceCensys {
		t.Errorf("2016-04 should be Censys, got %v %v", src, ok)
	}
}

func TestCoverageOrdering(t *testing.T) {
	// Censys sees the most; EFF the least (Nmap-era methodology).
	if !(Coverage(scanstore.SourceCensys) > Coverage(scanstore.SourceEcosystem)) ||
		!(Coverage(scanstore.SourceEcosystem) > Coverage(scanstore.SourceEFF)) {
		t.Error("coverage ordering wrong")
	}
	if Coverage(scanstore.Source("other")) != 1.0 {
		t.Error("unknown source should default to full coverage")
	}
}

// caFingerprints returns the fingerprints of the device-CA certificates
// the simulation issued, one per line that does not self-sign.
func caFingerprints(t *testing.T, sim *Simulation) map[[32]byte]bool {
	t.Helper()
	fps := make(map[[32]byte]bool)
	for _, ca := range sim.caCerts {
		fp, err := ca.cert.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[fp] = true
	}
	return fps
}

func TestSimTruthConsistency(t *testing.T) {
	sim, store := testSim(t, 0.1, 0, 0, false)
	truth := sim.TruthByFP()
	if len(truth) == 0 {
		t.Fatal("no ground truth recorded")
	}
	// Every observed HTTPS certificate has a truth record (no MITM or
	// bit errors in this run) — except the vendor device-CA
	// intermediates the Rapid7 era records alongside leaves.
	caFPs := caFingerprints(t, sim)
	if len(caFPs) == 0 {
		t.Error("expected device-CA lines in the default dynamics")
	}
	missing := 0
	for _, r := range store.Records() {
		if caFPs[r.CertFP] {
			continue
		}
		if _, ok := truth[r.CertFP]; !ok {
			missing++
		}
	}
	if missing != 0 {
		t.Errorf("%d observed certificates missing ground truth", missing)
	}
}

func TestSimMITMObservations(t *testing.T) {
	sim, store := testSim(t, 0.1, 0.02, 0, false)
	mitmN := sim.MITMModulus()
	if mitmN == nil {
		t.Fatal("MITM key missing")
	}
	served := store.ByModulus()[string(mitmN.Bytes())]
	if len(served.IPs) < 2 {
		t.Errorf("MITM modulus seen at %d IPs, want several", len(served.IPs))
	}
	// The substituted certificates retain distinct subjects: many certs,
	// one modulus.
	if len(served.Certs) < 2 {
		t.Errorf("MITM modulus should appear in multiple distinct certs, got %d", len(served.Certs))
	}
}

func TestSimBitErrors(t *testing.T) {
	sim, store := testSim(t, 0.1, 0, 0.01, false)
	truth := sim.TruthByFP()
	// Bit-error observations create certificates without truth records.
	corrupted := 0
	seen := make(map[[32]byte]bool)
	for _, r := range store.Records() {
		if seen[r.CertFP] {
			continue
		}
		seen[r.CertFP] = true
		if _, ok := truth[r.CertFP]; !ok {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("expected some bit-error certificates at rate 0.01")
	}
}

func TestSimOtherProtocols(t *testing.T) {
	_, store := testSim(t, 0.05, 0, 0, true)
	ssh := store.Stats(scanstore.SSH)
	if ssh.HostRecords != 68 {
		t.Errorf("SSH hosts = %d, want 68", ssh.HostRecords)
	}
	for _, p := range []scanstore.Protocol{scanstore.POP3S, scanstore.IMAPS, scanstore.SMTPS} {
		st := store.Stats(p)
		if st.HostRecords != 45 {
			t.Errorf("%s hosts = %d, want 45", p, st.HostRecords)
		}
	}
}

// TestOtherProtocolsOrder: the one-shot protocol scans of one simulation
// enter every store in the same order, so a saved corpus is byte-stable
// from run to run. Eight stores leave a map walk over three protocols
// about one chance in two thousand of agreeing throughout.
func TestOtherProtocolsOrder(t *testing.T) {
	sim, _ := testSim(t, 0.05, 0, 0, true)
	var first []scanstore.HostRecord
	for i := range 8 {
		store := scanstore.New()
		sim.observeOtherProtocols(store)
		recs := store.Records()
		if i == 0 {
			first = recs
			continue
		}
		if !slices.Equal(recs, first) {
			t.Fatalf("store %d holds the one-shot scans in another order than store 0", i)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	_, s1 := testSim(t, 0.05, 0, 0, false)
	_, s2 := testSim(t, 0.05, 0, 0, false)
	a, b := s1.Stats(""), s2.Stats("")
	if a != b {
		t.Errorf("same seed, different stats: %+v vs %+v", a, b)
	}
}

func TestSimChurnCreatesRetirements(t *testing.T) {
	sim, _ := testSim(t, 0.2, 0, 0, false)
	// Distinct certificates must exceed the peak alive population:
	// churn and flips retire and replace devices over six years.
	totalAlive2016 := 0
	for li := range sim.Lines() {
		totalAlive2016 += sim.TruthSeries(li).Total[Months-1]
	}
	if len(sim.TruthByFP()) <= totalAlive2016 {
		t.Errorf("truth records %d should exceed final alive %d", len(sim.TruthByFP()), totalAlive2016)
	}
}

func TestSimRSAOnlyShare(t *testing.T) {
	sim, store := testSim(t, 0.1, 0, 0, false)
	_ = sim
	// Roughly DefaultRSAOnlyShare of HTTPS observations should be
	// RSA-only (the default applies to every line in this config).
	rsaOnly, total := 0, 0
	for _, r := range store.Records() {
		if r.Protocol != scanstore.HTTPS {
			continue
		}
		total++
		if r.RSAOnly {
			rsaOnly++
		}
	}
	if total == 0 {
		t.Fatal("no records")
	}
	frac := float64(rsaOnly) / float64(total)
	if frac < 0.60 || frac > 0.88 {
		t.Errorf("RSA-only fraction = %.3f, want near %v", frac, DefaultRSAOnlyShare)
	}
}

func TestSimIPReuse(t *testing.T) {
	simA, err := New(Config{Seed: 5, KeyBits: 128, Scale: 0.1, IPReuse: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	storeA := scanstore.New()
	if err := simA.Run(context.Background(), storeA); err != nil {
		t.Fatal(err)
	}
	// With heavy reuse, some IPs must be served by more than one
	// distinct certificate-holder (different serials).
	serialsPerIP := make(map[string]map[string]bool)
	for _, r := range storeA.Records() {
		c := storeA.Cert(r.CertFP)
		if c == nil {
			continue
		}
		if serialsPerIP[r.IP] == nil {
			serialsPerIP[r.IP] = make(map[string]bool)
		}
		serialsPerIP[r.IP][c.SerialNumber.String()] = true
	}
	reused := 0
	for _, serials := range serialsPerIP {
		if len(serials) > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Error("IPReuse=0.8 produced no multi-device IPs")
	}
}

func TestIntermediatesOnlyInRapid7Era(t *testing.T) {
	sim, store := testSim(t, 0.1, 0, 0, false)
	caFPs := caFingerprints(t, sim)
	if len(caFPs) == 0 {
		t.Fatal("no device-CA lines in default dynamics")
	}
	sawRapid7 := false
	for _, r := range store.Records() {
		if !caFPs[r.CertFP] {
			continue
		}
		if r.Source != scanstore.SourceRapid7 {
			t.Fatalf("intermediate recorded by %s; only Rapid7 collected them", r.Source)
		}
		sawRapid7 = true
	}
	if !sawRapid7 {
		t.Error("no intermediates recorded in the Rapid7 era")
	}
}

func TestSimRunCancelled(t *testing.T) {
	sim, err := New(Config{Seed: 9, KeyBits: 128, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.Run(ctx, scanstore.New()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want wrapped context.Canceled", err)
	}
}

// TestSimRunProgress checks that a run with an event log in its context
// reports its progress there: one info "harvest" event every
// harvestEventMonths simulated months.
func TestSimRunProgress(t *testing.T) {
	sim, err := New(Config{Seed: 9, KeyBits: 128, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	events := telemetry.NewEventLog(telemetry.EventConfig{})
	if err := sim.Run(telemetry.ContextWithEvents(context.Background(), events), scanstore.New()); err != nil {
		t.Fatal(err)
	}
	var months []string
	for _, ev := range events.Events() {
		if ev.Msg != "harvest" || ev.Level != slog.LevelInfo || ev.Attr("months") != fmt.Sprint(int(Months)) {
			t.Fatalf("unexpected event %s %q %v", ev.Level, ev.Msg, ev.Attrs)
		}
		months = append(months, ev.Attr("month"))
	}
	var want []string
	for m := harvestEventMonths; m <= int(Months); m += harvestEventMonths {
		want = append(want, fmt.Sprint(m))
	}
	if fmt.Sprint(months) != fmt.Sprint(want) || len(want) == 0 {
		t.Errorf("harvest events at months %v, want %v", months, want)
	}
}
