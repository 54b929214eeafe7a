package core

import (
	"bytes"
	"context"
	"math/big"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/analysis"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

// dateIndex returns the index of date d in s, or -1.
func dateIndex(s analysis.Series, d time.Time) int { return slices.IndexFunc(s.Dates, d.Equal) }

// testStudy runs one moderately-sized study shared by every test in the
// package (the pipeline is deterministic, so sharing is safe).
func testStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study, studyErr = Run(context.Background(), Options{
			Seed:           7,
			KeyBits:        128,
			Scale:          0.25,
			Subsets:        4,
			MITMRate:       0.004,
			BitErrorRate:   0.0004,
			OtherProtocols: true,
		})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

func TestStudyPipelineCompletes(t *testing.T) {
	s := testStudy(t)
	cs := s.Analyzer.CorpusStats()
	if cs.HTTPSHostRecords < 1000 {
		t.Errorf("host records = %d, implausibly few", cs.HTTPSHostRecords)
	}
	if cs.TotalDistinctModuli <= cs.DistinctHTTPSModuli {
		t.Error("other-protocol moduli should add to the total")
	}
	if cs.VulnerableModuli == 0 {
		t.Fatal("no vulnerable moduli factored")
	}
	// The paper factored 0.37% of distinct moduli. Our simulation's
	// vulnerable share is the same order of magnitude (sub-10%).
	frac := float64(cs.VulnerableModuli) / float64(cs.TotalDistinctModuli)
	if frac <= 0 || frac > 0.10 {
		t.Errorf("vulnerable fraction = %.4f, want small", frac)
	}
	if s.GCDStats.Subsets != 4 {
		t.Errorf("distributed stats missing: %+v", s.GCDStats)
	}
}

// truthVulnModKeys returns the ground-truth vulnerable moduli that were
// ever observed by a scan.
func truthVulnModKeys(s *Study) (vuln map[string]bool, observedVulnCerts int) {
	vuln = make(map[string]bool)
	truth := s.Sim.TruthByFP()
	for _, c := range s.Store.DistinctCerts() {
		fp, err := c.Fingerprint()
		if err != nil {
			continue
		}
		tr, ok := truth[fp]
		if !ok || !tr.Vulnerable {
			continue
		}
		observedVulnCerts++
		vuln[c.ModulusKey()] = true
	}
	return vuln, observedVulnCerts
}

func TestBatchGCDRecall(t *testing.T) {
	s := testStudy(t)
	truthVuln, _ := truthVulnModKeys(s)
	found, missed := 0, 0
	for key := range truthVuln {
		if _, ok := s.Fingerprint.Factors[key]; ok {
			found++
		} else {
			missed++
		}
	}
	if found == 0 {
		t.Fatal("batch GCD found none of the ground-truth vulnerable moduli")
	}
	// Misses are possible only for cohort singletons (a cohort whose
	// other members were never deployed or never observed) — a small
	// tail.
	if rate := float64(missed) / float64(found+missed); rate > 0.10 {
		t.Errorf("missed %.1f%% of ground-truth vulnerable moduli", 100*rate)
	}
}

func TestBatchGCDPrecision(t *testing.T) {
	s := testStudy(t)
	truthVuln, _ := truthVulnModKeys(s)
	truth := s.Sim.TruthByFP()
	// Every factored modulus must be ground-truth vulnerable, a
	// bit-error artifact (excluded from Factors), or... nothing else.
	byMod := make(map[string]bool) // modKey -> ground truth vulnerable
	for _, c := range s.Store.DistinctCerts() {
		fp, err := c.Fingerprint()
		if err != nil {
			continue
		}
		if tr, ok := truth[fp]; ok && tr.Vulnerable {
			byMod[c.ModulusKey()] = true
		}
	}
	// Bare-key observations (the SSH host-key corpus) have no
	// certificates, hence no certificate-level ground truth; the
	// vulnerable SSH pool is factored by design. Exempt them.
	hasCert := make(map[string]bool)
	for _, c := range s.Store.DistinctCerts() {
		hasCert[c.ModulusKey()] = true
	}
	falsePos := 0
	for key := range s.Fingerprint.Factors {
		if !hasCert[key] {
			continue
		}
		if !truthVuln[key] && !byMod[key] {
			falsePos++
		}
	}
	if falsePos > 0 {
		t.Errorf("%d factored moduli are not ground-truth vulnerable", falsePos)
	}
}

func TestFingerprintAccuracy(t *testing.T) {
	s := testStudy(t)
	truth := s.Sim.TruthByFP()
	correct, wrong := 0, 0
	for fp, lbl := range s.Fingerprint.Labels {
		tr, ok := truth[fp]
		if !ok {
			continue // bit-error observation; no truth
		}
		if tr.BehindMITM {
			continue // MITM certs carry the victim subject but the ISP key
		}
		if lbl.Vendor == tr.Vendor {
			correct++
		} else {
			wrong++
		}
	}
	if correct == 0 {
		t.Fatal("no labels to score")
	}
	if rate := float64(wrong) / float64(correct+wrong); rate > 0.02 {
		t.Errorf("label error rate %.2f%% (wrong %d / %d)", 100*rate, wrong, correct+wrong)
	}
}

// truthSeries sums the simulation's ground-truth population series over
// every line of a vendor. Scan-sampled series carry binomial noise
// (sigma ~5 at this scale), so shape assertions about the underlying
// population use the truth and only coarse checks use the observations.
func truthSeries(s *Study, vendor string) population.Series {
	var out population.Series
	for li, line := range s.Sim.Lines() {
		if line.Profile.Vendor != vendor && vendor != "" {
			continue
		}
		ts := s.Sim.TruthSeries(li)
		for m := 0; m < population.Months; m++ {
			out.Total[m] += ts.Total[m]
			out.Vuln[m] += ts.Vuln[m]
		}
	}
	return out
}

func TestJuniperShape(t *testing.T) {
	s := testStudy(t)
	truth := truthSeries(s, "Juniper")
	at := func(month string) population.Month { return population.MustMonth(month) }
	// Vulnerable population RISES for ~2 years after the 2012 advisory.
	v2012 := truth.Vuln[at("2012-07")]
	v2014 := truth.Vuln[at("2014-03")]
	if v2014 <= v2012 {
		t.Errorf("Juniper vulnerable should rise post-advisory: 2012-07=%d 2014-03=%d", v2012, v2014)
	}
	// Heartbleed: sharp drop in both vulnerable and total populations.
	if after := truth.Vuln[at("2014-05")]; after >= v2014 {
		t.Errorf("Juniper vulnerable should drop at Heartbleed: %d -> %d", v2014, after)
	}
	if before, after := truth.Total[at("2014-04")], truth.Total[at("2014-05")]; after >= before {
		t.Errorf("Juniper total should drop at Heartbleed: %d -> %d", before, after)
	}
	// The observed series sees the total-population cliff too (totals are
	// large enough that sampling noise cannot hide a 3/8 drop).
	series := s.Analyzer.VendorSeries("Juniper", "")
	i := dateIndex(series, population.MustMonth("2014-04").Time())
	j := dateIndex(series, population.MustMonth("2014-05").Time())
	if i < 0 || j < 0 {
		t.Fatal("scan dates missing")
	}
	if series.Total[j] >= series.Total[i] {
		t.Errorf("observed Juniper total should drop across Heartbleed: %d -> %d", series.Total[i], series.Total[j])
	}
}

func TestInnominateFlat(t *testing.T) {
	s := testStudy(t)
	series := s.Analyzer.VendorSeries("Innominate", "")
	at := func(month string) int { return dateIndex(series, population.MustMonth(month).Time()) }
	v13, v15 := series.Vuln[at("2013-06")], series.Vuln[at("2015-09")]
	if v13 == 0 {
		t.Fatal("no Innominate vulnerable population")
	}
	diff := v13 - v15
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.5*float64(v13) {
		t.Errorf("Innominate vulnerable should stay roughly flat: %d vs %d", v13, v15)
	}
	// Total grows over the same period.
	if series.Total[at("2015-09")] <= series.Total[at("2012-06")] {
		t.Error("Innominate total should grow")
	}
}

func TestIBMDecline(t *testing.T) {
	s := testStudy(t)
	series := s.Analyzer.VendorSeries("IBM", "")
	at := func(month string) int { return dateIndex(series, population.MustMonth(month).Time()) }
	// Single scans are noisy and coverage differs between source eras
	// (the paper's "methodology artifacts"), so compare half-year sums
	// within the Ecosystem era, plus the endpoints.
	sum := func(months ...string) int {
		total := 0
		for _, m := range months {
			total += series.Vuln[at(m)]
		}
		return total
	}
	early := sum("2012-06", "2012-07", "2012-08", "2012-09", "2012-10", "2012-11")
	late := sum("2013-08", "2013-09", "2013-10", "2013-11", "2013-12", "2014-01")
	if late >= early {
		t.Errorf("IBM should already be declining before/through 2012-2013: early window %d, late window %d", early, late)
	}
	if v2016 := series.Vuln[at("2016-04")]; v2016*2 >= series.Vuln[at("2012-06")]*1 && v2016 > 4 {
		t.Errorf("IBM 2016 population %d should be well below 2012 (%d)", v2016, series.Vuln[at("2012-06")])
	}
	// The Heartbleed cliff (targets drop 44 -> 21 around 04/2014).
	if series.Vuln[at("2014-05")] >= series.Vuln[at("2014-03")] {
		t.Errorf("IBM should drop across Heartbleed: %d -> %d",
			series.Vuln[at("2014-03")], series.Vuln[at("2014-05")])
	}
}

func TestNewlyVulnerableVendors(t *testing.T) {
	s := testStudy(t)
	for _, vendor := range []string{"Huawei", "ADTRAN", "Sangfor", "Schmid Telecom"} {
		series := s.Analyzer.VendorSeries(vendor, "")
		at := func(month string) int { return dateIndex(series, population.MustMonth(month).Time()) }
		if early := series.Vuln[at("2013-06")]; early != 0 {
			t.Errorf("%s: vulnerable before introduction: %d", vendor, early)
		}
		if late := series.Vuln[at("2016-04")]; late == 0 {
			t.Errorf("%s: no vulnerable hosts by 2016", vendor)
		}
	}
}

func TestOpenSSLTable5Agreement(t *testing.T) {
	s := testStudy(t)
	for name, vs := range s.Fingerprint.Vendors {
		if vs.PrimesTotal < 6 {
			continue // tiny samples are inconclusive
		}
		reg := devices.ByName(name)
		if reg == nil || reg.OpenSSL == weakrsa.OpenSSLUnknown {
			continue
		}
		if vs.OpenSSL != reg.OpenSSL {
			t.Errorf("%s: measured %v, registry says %v (sat %d/%d)",
				name, vs.OpenSSL, reg.OpenSSL, vs.PrimesSatisfyingOpenSSL, vs.PrimesTotal)
		}
	}
}

func TestCliqueIsIBM(t *testing.T) {
	s := testStudy(t)
	if len(s.Fingerprint.Cliques) == 0 {
		t.Fatal("IBM clique not detected")
	}
	cl := s.Fingerprint.Cliques[0]
	if len(cl.Primes) > 9 {
		t.Errorf("largest clique has %d primes, expected <= 9", len(cl.Primes))
	}
	if len(cl.ModKeys) <= len(cl.Primes) {
		t.Error("clique shape wrong")
	}
	// The Siemens overlap is recorded.
	if s.Fingerprint.PrimeOverlaps[[2]string{"IBM", "Siemens"}] == 0 {
		t.Error("Siemens/IBM overlap missing")
	}
}

func TestDellXeroxOverlapInStudy(t *testing.T) {
	s := testStudy(t)
	// Whether a factored cohort prime actually spans both vendors is
	// seed- and scale-dependent (cohorts hold 2-6 keys). Determine the
	// ground truth first, then require the pipeline to agree.
	truth := s.Sim.TruthByFP()
	vendorsByPrime := make(map[string]map[string]bool)
	for _, c := range s.Store.DistinctCerts() {
		fp, err := c.Fingerprint()
		if err != nil {
			continue
		}
		tr, ok := truth[fp]
		if !ok || (tr.Vendor != "Dell" && tr.Vendor != "Xerox") {
			continue
		}
		f, ok := s.Fingerprint.Factors[c.ModulusKey()]
		if !ok {
			continue
		}
		for _, p := range []*big.Int{f.P, f.Q} {
			k := p.String()
			if vendorsByPrime[k] == nil {
				vendorsByPrime[k] = make(map[string]bool)
			}
			vendorsByPrime[k][tr.Vendor] = true
		}
	}
	truthOverlap := false
	for _, vs := range vendorsByPrime {
		if vs["Dell"] && vs["Xerox"] {
			truthOverlap = true
		}
	}
	recorded := s.Fingerprint.PrimeOverlaps[[2]string{"Dell", "Xerox"}] > 0
	if truthOverlap && !recorded {
		t.Error("ground-truth Dell/Xerox prime overlap not recorded by the pipeline")
	}
	if !truthOverlap && recorded {
		t.Error("pipeline recorded a Dell/Xerox overlap that is not in ground truth")
	}
}

func TestMITMDetected(t *testing.T) {
	s := testStudy(t)
	want := string(s.Sim.MITMModulus().Bytes())
	found := false
	for _, m := range s.Fingerprint.MITM {
		if m.ModKey == want {
			found = true
			if m.DistinctCerts < 3 || m.DistinctIPs < 3 {
				t.Errorf("suspect counts: %+v", m)
			}
		}
	}
	if !found {
		t.Error("Internet Rimon modulus not flagged")
	}
}

func TestBitErrorsSetAside(t *testing.T) {
	s := testStudy(t)
	// With rate 0.0004 over >100k observations some corrupted moduli
	// must appear; those that were factored are classified as bit
	// errors, not vulnerabilities.
	for _, be := range s.Fingerprint.BitErrors {
		if _, ok := s.Fingerprint.Factors[be.ModKey]; ok {
			t.Error("bit-error modulus in the factored set")
		}
	}
}

func TestTablesRender(t *testing.T) {
	s := testStudy(t)
	for n := 1; n <= 5; n++ {
		var b strings.Builder
		if err := s.Table(&b, n); err != nil {
			t.Errorf("table %d: %v", n, err)
		}
		if b.Len() == 0 {
			t.Errorf("table %d empty", n)
		}
	}
	var b strings.Builder
	if err := s.Table(&b, 6); err == nil {
		t.Error("table 6 should not exist")
	}
	if err := s.Table1(&b); err != nil {
		t.Error(err)
	}
	if !strings.Contains(b.String(), "Vulnerable RSA moduli") {
		t.Error("Table 1 missing rows")
	}
}

func TestFiguresRender(t *testing.T) {
	s := testStudy(t)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		var b strings.Builder
		if err := s.Figure(&b, n); err != nil {
			t.Errorf("figure %d: %v", n, err)
		}
		if b.Len() == 0 {
			t.Errorf("figure %d empty", n)
		}
	}
	var b strings.Builder
	if err := s.Figure(&b, 11); err == nil {
		t.Error("figure 11 should not exist")
	}
}

func TestTable4Shape(t *testing.T) {
	s := testStudy(t)
	var b strings.Builder
	if err := s.Table4(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, proto := range []string{"HTTPS", "SSH", "POP3S", "IMAPS", "SMTPS"} {
		if !strings.Contains(out, proto) {
			t.Errorf("Table 4 missing %s", proto)
		}
	}
	// Mail protocols contribute zero vulnerable hosts; SSH a few.
	rows := s.Analyzer.ProtocolBreakdown(nil)
	_ = rows
}

func TestHeartbleedIsLargestTruthDrop(t *testing.T) {
	// The paper's headline temporal finding: the single largest drop in
	// the vulnerable population lands at the Heartbleed disclosure. The
	// underlying (ground-truth) population shows this deterministically;
	// the scan-sampled aggregate reproduces it at full scale (verified
	// by `weakkeys -all`: 2014-04 -> 2014-05 is the largest observed
	// drop) but at this test's 25% scale binomial noise can blur single
	// months, so the assertion here uses the truth series.
	s := testStudy(t)
	truth := truthSeries(s, "")
	hb := population.MustMonth("2014-05")
	hbDrop := truth.Vuln[hb-1] - truth.Vuln[hb]
	if hbDrop <= 0 {
		t.Fatalf("no vulnerable-population drop across Heartbleed (got %d)", hbDrop)
	}
	for m := population.Month(1); m < population.Months; m++ {
		if m == hb {
			continue
		}
		if d := truth.Vuln[m-1] - truth.Vuln[m]; d > hbDrop {
			t.Errorf("month %s drops %d > Heartbleed's %d", m, d, hbDrop)
		}
	}
	// Sanity on the observed aggregate: the Heartbleed window must not
	// show growth.
	agg := s.Analyzer.AggregateSeries()
	i := dateIndex(agg, population.MustMonth("2014-04").Time())
	j := dateIndex(agg, hb.Time())
	if i >= 0 && j >= 0 && agg.Vuln[j] > agg.Vuln[i] {
		t.Errorf("observed vulnerable population grew across Heartbleed: %d -> %d", agg.Vuln[i], agg.Vuln[j])
	}
}

func TestSummaryRenders(t *testing.T) {
	s := testStudy(t)
	var b strings.Builder
	if err := s.Summary(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Largest vulnerable-population drop", "RSA key exchange",
		"Juniper", "Disclosure campaign 2012", "Disclosure campaign 2016"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestKeyExchange74Percent(t *testing.T) {
	s := testStudy(t)
	ke := s.Analyzer.KeyExchangeAt(population.MustMonth("2016-04").Time())
	if ke.VulnerableHosts == 0 {
		t.Fatal("no vulnerable hosts in the April 2016 scan")
	}
	// The paper: 74% of vulnerable devices only support RSA key
	// exchange. The simulation samples per device; allow wide slack.
	if frac := ke.Fraction(); frac < 0.60 || frac > 0.88 {
		t.Errorf("RSA-only fraction = %.3f (of %d), want near 0.74", frac, ke.VulnerableHosts)
	}
}

func TestReplacementsDominatePatching(t *testing.T) {
	s := testStudy(t)
	// Across the never-responding vendors (no flips configured), every
	// vulnerable->safe transition must be replacement or IP churn, not
	// patching — the paper's central end-user finding.
	totalRep, totalPatch := 0, 0
	for _, vendor := range []string{"ZyXEL", "Linksys", "Thomson", "McAfee"} {
		rep := s.Analyzer.Replacements(vendor)
		totalRep += rep.Replaced
		totalPatch += rep.PatchedInPlace
	}
	if totalRep == 0 {
		t.Fatal("no transitions at all among declining vendors")
	}
	if totalPatch > totalRep/10 {
		t.Errorf("patched-in-place %d vs replaced %d: patching should be rare-to-absent", totalPatch, totalRep)
	}
	// Juniper has flips configured (certificate regeneration on the
	// same device), so in-place transitions exist there.
	jun := s.Analyzer.Replacements("Juniper")
	if jun.PatchedInPlace == 0 {
		t.Error("Juniper flips should register as in-place re-keying")
	}
}

func TestTransitionsExist(t *testing.T) {
	s := testStudy(t)
	tr := s.Analyzer.Transitions("Juniper")
	if tr.EverVuln == 0 || tr.EverTotal == 0 {
		t.Fatalf("transitions: %+v", tr)
	}
	if tr.VulnToSafe == 0 && tr.SafeToVuln == 0 {
		t.Error("Juniper flips configured but no transitions observed")
	}
}

func TestAnalyzeStoreMatchesRun(t *testing.T) {
	s := testStudy(t)
	// Round-trip the corpus through a whole-store save and load,
	// re-analyze without the simulation, and compare the headline numbers.
	var buf bytes.Buffer
	if err := s.Store.SaveDelta(&buf, scanstore.Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	store := scanstore.New()
	if err := store.LoadSince(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := AnalyzeStore(context.Background(), store, Options{KeyBits: 128, Subsets: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Analyzer.CorpusStats(), s2.Analyzer.CorpusStats()
	if a != b {
		t.Errorf("reloaded analysis differs:\n run: %+v\nload: %+v", a, b)
	}
	// Without analyst clique knowledge the IBM attribution falls back
	// to majority labels (possibly Siemens); everything else matches.
	for _, vendor := range []string{"Juniper", "Fritz!Box", "Cisco"} {
		sa := s.Analyzer.VendorSeries(vendor, "")
		sb := s2.Analyzer.VendorSeries(vendor, "")
		for i := range sa.Dates {
			if sa.Total[i] != sb.Total[i] || sa.Vuln[i] != sb.Vuln[i] {
				t.Errorf("%s series diverges at %v", vendor, sa.Dates[i])
				break
			}
		}
	}
}

func TestSourcesAndExport(t *testing.T) {
	s := testStudy(t)
	var b strings.Builder
	if err := s.Sources(&b); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"EFF", "P&Q", "Ecosystem", "Rapid7", "Censys"} {
		if !strings.Contains(b.String(), src) {
			t.Errorf("source table missing %s", src)
		}
	}
	dir := t.TempDir()
	files, err := s.ExportCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if files < 10 {
		t.Errorf("exported %d files, want one per vendor plus aggregate", files)
	}
	data, err := os.ReadFile(filepath.Join(dir, "all.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "date,source,total,vulnerable") {
		t.Error("aggregate CSV malformed")
	}
	if _, err := os.Stat(filepath.Join(dir, "Fritz_Box.csv")); err != nil {
		t.Errorf("vendor CSV naming: %v", err)
	}
}

// TestAnomalyStage runs a small ecosystem made only of the anomalous
// device families and checks the optional Anomaly stage surfaces every
// class batch GCD cannot see.
func TestAnomalyStage(t *testing.T) {
	s, err := Run(context.Background(), Options{
		Seed:      11,
		KeyBits:   128,
		Lines:     population.AnomalyLines(),
		Anomalies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Anomaly
	if rep == nil {
		t.Fatal("Options.Anomalies set but Study.Anomaly is nil")
	}
	if rep.FermatWeakCount == 0 {
		t.Error("no Fermat-weak moduli found in a close-primes fleet")
	}
	if rep.SmallFactorCount == 0 {
		t.Error("no small-factor moduli found in a small-factor fleet")
	}
	if rep.SharedCount == 0 {
		t.Error("no shared moduli found in a shared-modulus fleet")
	}
	if rep.Exponents.Anomalous() == 0 {
		t.Error("no anomalous exponents found in an e=1 fleet")
	}
	if sr := stageReport(s.Report, StageAnomaly); sr == nil {
		t.Error("run report missing the Anomaly stage")
	} else if sr.ItemsOut == 0 {
		t.Error("Anomaly stage reported zero findings")
	}
	var b strings.Builder
	if err := s.Anomalies(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shared moduli", "Fermat-factorable", "exponent census"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("anomaly summary missing %q:\n%s", want, b.String())
		}
	}
}

// TestAnomalyStageGated: without Options.Anomalies the stage must not
// run and the printer must say so.
func TestAnomalyStageGated(t *testing.T) {
	s := testStudy(t)
	if s.Anomaly != nil {
		t.Error("Study.Anomaly set without Options.Anomalies")
	}
	if stageReport(s.Report, StageAnomaly) != nil {
		t.Error("Anomaly stage ran without Options.Anomalies")
	}
	if err := s.Anomalies(new(strings.Builder)); err == nil {
		t.Error("Anomalies() on a run without the stage should error")
	}
}
