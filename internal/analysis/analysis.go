// Package analysis derives the paper's longitudinal results from the
// scan store and the fingerprint labels: per-vendor population time
// series (Figures 3-10), the aggregate series (Figure 1), host
// vulnerability transitions (the Juniper patching analysis of Section
// 4.1), and the per-table summary statistics.
package analysis

import (
	"sort"
	"time"

	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// Series is a time series of total and vulnerable host counts for one
// population (a vendor, a model, or the whole corpus).
type Series struct {
	Name  string
	Dates []time.Time
	// Total is the number of hosts serving a certificate attributed to
	// the population on each date.
	Total []int
	// Vuln is the subset serving factored keys.
	Vuln []int
	// Source records the scan project per date (for era annotations).
	Sources []scanstore.Source
}

// Analyzer precomputes the per-record attributions needed by every query.
type Analyzer struct {
	store *scanstore.Store
	// labels maps certificate fingerprints to vendor attributions.
	labels map[[32]byte]fingerprint.Label
	// vulnMod marks factored modulus keys (bit-error moduli excluded).
	vulnMod map[string]bool
	// excluded marks moduli set aside as measurement artifacts (bit
	// errors); transition analyses skip records carrying them so a
	// one-off corrupted observation does not read as a key change.
	excluded map[string]bool
	// records is the chain-reconstructed view: intermediates stripped.
	records []scanstore.HostRecord
	// recLabels is each record's label, aligned with records (the zero
	// Label where its certificate has none), resolved once in New.
	recLabels []fingerprint.Label
	dates     []time.Time
	sources   map[time.Time]scanstore.Source
}

// ExcludeModuli marks modulus keys as measurement artifacts to be skipped
// by the transition and replacement analyses.
func (a *Analyzer) ExcludeModuli(keys map[string]bool) {
	a.excluded = keys
}

// New builds an analyzer. vulnKeys should be the factored modulus keys
// after bit-error exclusion (fingerprint.Result.Factors).
//
// Construction reconstructs certificate chains per host and keeps only
// the lowest certificate: the Rapid7 scans recorded intermediate (CA)
// certificates alongside leaves without chaining them, and the paper
// excluded them "by reconstructing the chains using common names among
// all certificates associated with each IP address and including only
// the lowest certificate in the chain" (Section 3.1).
func New(store *scanstore.Store, labels map[[32]byte]fingerprint.Label, vulnKeys map[string]bool) *Analyzer {
	a := &Analyzer{
		store:   store,
		labels:  labels,
		vulnMod: vulnKeys,
		sources: make(map[time.Time]scanstore.Source),
	}
	a.records = StripIntermediates(store)
	a.recLabels = make([]fingerprint.Label, len(a.records))
	a.dates = store.ScanDates(scanstore.HTTPS)
	for i, r := range a.records {
		if r.Protocol == scanstore.HTTPS {
			a.sources[r.Date] = r.Source
			a.recLabels[i] = labels[r.CertFP]
		}
	}
	return a
}

// StripIntermediates returns the store's records with per-host
// intermediate certificates removed: within each (IP, date) group, a
// record is dropped when its certificate's subject common name appears
// as the issuer of a different certificate in the same group.
func StripIntermediates(store *scanstore.Store) []scanstore.HostRecord {
	records := store.Records()
	type groupKey struct {
		ip   string
		date time.Time
	}
	// First pass: per group, collect issuer CNs seen on other certs.
	issuers := make(map[groupKey]map[string][32]byte) // issuer CN -> a cert that names it
	for _, r := range records {
		if r.Protocol != scanstore.HTTPS || r.CertFP == ([32]byte{}) {
			continue
		}
		c := store.Cert(r.CertFP)
		if c == nil || c.Issuer.CommonName == "" || c.Issuer == c.Subject {
			continue
		}
		k := groupKey{r.IP, r.Date}
		if issuers[k] == nil {
			issuers[k] = make(map[string][32]byte)
		}
		issuers[k][c.Issuer.CommonName] = r.CertFP
	}
	out := make([]scanstore.HostRecord, 0, len(records))
	for _, r := range records {
		if r.Protocol == scanstore.HTTPS && r.CertFP != ([32]byte{}) {
			if c := store.Cert(r.CertFP); c != nil {
				k := groupKey{r.IP, r.Date}
				if namedBy, ok := issuers[k][c.Subject.CommonName]; ok && namedBy != r.CertFP {
					continue // an intermediate: some other cert here names it as issuer
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// matches reports whether the ith record belongs to the vendor/model
// selection ("" matches all). A record with no label has the zero
// Label, whose empty vendor no selection names.
func (a *Analyzer) matches(i int, vendor, model string) bool {
	lbl := a.recLabels[i]
	return vendor == "" || lbl.Vendor == vendor && (model == "" || lbl.Model == model)
}

// VendorSeries builds the Figure 3-10 series for one vendor (optionally
// one model — the Cisco end-of-life analysis uses models).
func (a *Analyzer) VendorSeries(vendor, model string) Series {
	return a.series(vendor+"/"+model, vendor, model)
}

// AggregateSeries builds the Figure 1 series over all HTTPS hosts.
func (a *Analyzer) AggregateSeries() Series {
	return a.series("all", "", "")
}

func (a *Analyzer) series(name, vendor, model string) Series {
	s := Series{Name: name, Dates: a.dates}
	totals := make(map[time.Time]int)
	vulns := make(map[time.Time]int)
	for i, r := range a.records {
		if r.Protocol != scanstore.HTTPS || !a.matches(i, vendor, model) {
			continue
		}
		totals[r.Date]++
		if a.vulnMod[r.ModKey] {
			vulns[r.Date]++
		}
	}
	for _, d := range a.dates {
		s.Total = append(s.Total, totals[d])
		s.Vuln = append(s.Vuln, vulns[d])
		s.Sources = append(s.Sources, a.sources[d])
	}
	return s
}

// Transitions summarizes per-IP vulnerability transitions for a vendor,
// reproducing the Section 4.1 Juniper analysis: how many IPs ever moved
// from a vulnerable to a non-vulnerable certificate (patching or
// replacement), the reverse, or both repeatedly.
type Transitions struct {
	// EverTotal and EverVuln count distinct IPs ever fingerprinted for
	// the vendor and ever serving a vulnerable key.
	EverTotal, EverVuln int
	// VulnToSafe counts IPs with at least one vulnerable->safe move.
	VulnToSafe int
	// SafeToVuln counts IPs with at least one safe->vulnerable move.
	SafeToVuln int
	// Multiple counts IPs that transitioned more than once.
	Multiple int
}

// Transitions computes the transition summary for a vendor.
func (a *Analyzer) Transitions(vendor string) Transitions {
	type obs struct {
		date time.Time
		vuln bool
	}
	perIP := make(map[string][]obs)
	for i, r := range a.records {
		if r.Protocol != scanstore.HTTPS || !a.matches(i, vendor, "") || a.excluded[r.ModKey] {
			continue
		}
		perIP[r.IP] = append(perIP[r.IP], obs{r.Date, a.vulnMod[r.ModKey]})
	}
	var tr Transitions
	for _, seq := range perIP {
		sort.Slice(seq, func(i, j int) bool { return seq[i].date.Before(seq[j].date) })
		tr.EverTotal++
		ever := false
		flips := 0
		var v2s, s2v bool
		for i, o := range seq {
			if o.vuln {
				ever = true
			}
			if i > 0 && o.vuln != seq[i-1].vuln {
				flips++
				if o.vuln {
					s2v = true
				} else {
					v2s = true
				}
			}
		}
		if ever {
			tr.EverVuln++
		}
		if v2s {
			tr.VulnToSafe++
		}
		if s2v {
			tr.SafeToVuln++
		}
		if flips > 1 {
			tr.Multiple++
		}
	}
	return tr
}

func nearest(dates []time.Time, want time.Time) int {
	best, bestDiff := -1, time.Duration(1<<62)
	for i, d := range dates {
		diff := d.Sub(want)
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = i, diff
		}
	}
	return best
}

// LargestVulnDrop locates the largest scan-over-scan decrease in a
// series' vulnerable population. The paper's headline temporal finding is
// that the single largest drop in the whole dataset lands at the
// Heartbleed disclosure (April 2014) — not at any weak-key advisory.
func LargestVulnDrop(s Series) (from, to time.Time, drop int) {
	for i := 1; i < len(s.Dates); i++ {
		if d := s.Vuln[i-1] - s.Vuln[i]; d > drop {
			drop = d
			from, to = s.Dates[i-1], s.Dates[i]
		}
	}
	return from, to, drop
}

// CorpusStats are the Table 1 headline numbers.
type CorpusStats struct {
	HTTPSHostRecords    int
	DistinctHTTPSCerts  int
	DistinctHTTPSModuli int
	TotalDistinctModuli int
	VulnerableModuli    int
	VulnerableRecords   int
	VulnerableCerts     int
}

// CorpusStats aggregates Table 1 over the chain-reconstructed record
// view (intermediates excluded), except TotalDistinctModuli, which spans
// the raw corpus fed to batch GCD.
func (a *Analyzer) CorpusStats() CorpusStats {
	var cs CorpusStats
	allStats := a.store.Stats("")
	cs.TotalDistinctModuli = allStats.DistinctModuli
	cs.VulnerableModuli = len(a.vulnMod)
	certSet := make(map[[32]byte]bool)
	modSet := make(map[string]bool)
	vulnCerts := make(map[[32]byte]bool)
	for _, r := range a.records {
		if r.Protocol != scanstore.HTTPS {
			continue
		}
		cs.HTTPSHostRecords++
		certSet[r.CertFP] = true
		modSet[r.ModKey] = true
		if a.vulnMod[r.ModKey] {
			cs.VulnerableRecords++
			vulnCerts[r.CertFP] = true
		}
	}
	cs.DistinctHTTPSCerts = len(certSet)
	cs.DistinctHTTPSModuli = len(modSet)
	cs.VulnerableCerts = len(vulnCerts)
	return cs
}

// ProtocolStats is one Table 4 row.
type ProtocolStats struct {
	Protocol        scanstore.Protocol
	ScanDate        time.Time
	TotalHosts      int
	VulnerableHosts int
}

// ProtocolBreakdown computes Table 4 for the given protocols (hosts on
// the latest scan date per protocol).
func (a *Analyzer) ProtocolBreakdown(protos []scanstore.Protocol) []ProtocolStats {
	var out []ProtocolStats
	for _, p := range protos {
		dates := a.store.ScanDates(p)
		ps := ProtocolStats{Protocol: p}
		if len(dates) > 0 {
			ps.ScanDate = dates[len(dates)-1]
			for _, r := range a.store.RecordsOn(ps.ScanDate, p) {
				ps.TotalHosts++
				if a.vulnMod[r.ModKey] {
					ps.VulnerableHosts++
				}
			}
		}
		out = append(out, ps)
	}
	return out
}

// KeyExchange summarizes cipher-suite exposure among vulnerable hosts on
// one scan date (Section 2.1: 74% of the 61,240 vulnerable devices in the
// April 2016 scan only supported RSA key exchange, so a factored key
// decrypts their sessions passively).
type KeyExchange struct {
	Date            time.Time
	VulnerableHosts int
	RSAOnly         int
}

// Fraction returns the RSA-only share.
func (k KeyExchange) Fraction() float64 {
	if k.VulnerableHosts == 0 {
		return 0
	}
	return float64(k.RSAOnly) / float64(k.VulnerableHosts)
}

// KeyExchangeAt computes the exposure on the scan nearest to date (zero
// time means the latest scan).
func (a *Analyzer) KeyExchangeAt(date time.Time) KeyExchange {
	if len(a.dates) == 0 {
		return KeyExchange{}
	}
	idx := len(a.dates) - 1
	if !date.IsZero() {
		idx = nearest(a.dates, date)
	}
	ke := KeyExchange{Date: a.dates[idx]}
	for _, r := range a.store.RecordsOn(a.dates[idx], scanstore.HTTPS) {
		if !a.vulnMod[r.ModKey] {
			continue
		}
		ke.VulnerableHosts++
		if r.RSAOnly {
			ke.RSAOnly++
		}
	}
	return ke
}

// Replacements classifies the vulnerable->safe transitions of a vendor's
// IPs: did the same certificate-holder regenerate its key (a patch), or
// did a different device appear at the address (replacement or IP churn)?
// The paper's IBM analysis found the decline was replacement, not
// patching: of 1,728 ever-vulnerable IPs, the 350 that later served
// non-vulnerable certificates showed "varying subjects ... due to IP
// churn".
type Replacements struct {
	// PatchedInPlace: the safe certificate kept the vulnerable
	// certificate's serial — the same device re-keyed.
	PatchedInPlace int
	// Replaced: a different certificate-holder took over the IP.
	Replaced int
}

// Replacements analyzes all vulnerable->safe transitions for a vendor.
func (a *Analyzer) Replacements(vendor string) Replacements {
	type obs struct {
		date time.Time
		vuln bool
		fp   [32]byte
	}
	perIP := make(map[string][]obs)
	for i, r := range a.records {
		if r.Protocol != scanstore.HTTPS || !a.matches(i, vendor, "") || a.excluded[r.ModKey] {
			continue
		}
		perIP[r.IP] = append(perIP[r.IP], obs{r.Date, a.vulnMod[r.ModKey], r.CertFP})
	}
	var out Replacements
	for _, seq := range perIP {
		sort.Slice(seq, func(i, j int) bool { return seq[i].date.Before(seq[j].date) })
		for i := 1; i < len(seq); i++ {
			if !seq[i-1].vuln || seq[i].vuln {
				continue
			}
			before := a.store.Cert(seq[i-1].fp)
			after := a.store.Cert(seq[i].fp)
			if before != nil && after != nil &&
				before.SerialNumber.Cmp(after.SerialNumber) == 0 {
				out.PatchedInPlace++
			} else {
				out.Replaced++
			}
		}
	}
	return out
}

// SourceStats summarizes one scan project's contribution to the corpus —
// the Section 3.1 accounting of the five data sources.
type SourceStats struct {
	Source        scanstore.Source
	Scans         int
	HostRecords   int
	DistinctCerts int
	FirstScan     time.Time
	LastScan      time.Time
}

// SourceBreakdown aggregates HTTPS records per scan project, ordered by
// first appearance.
func (a *Analyzer) SourceBreakdown() []SourceStats {
	byerr := make(map[scanstore.Source]*SourceStats)
	certSets := make(map[scanstore.Source]map[[32]byte]bool)
	dateSets := make(map[scanstore.Source]map[time.Time]bool)
	for _, r := range a.records {
		if r.Protocol != scanstore.HTTPS {
			continue
		}
		st := byerr[r.Source]
		if st == nil {
			st = &SourceStats{Source: r.Source, FirstScan: r.Date, LastScan: r.Date}
			byerr[r.Source] = st
			certSets[r.Source] = make(map[[32]byte]bool)
			dateSets[r.Source] = make(map[time.Time]bool)
		}
		st.HostRecords++
		certSets[r.Source][r.CertFP] = true
		dateSets[r.Source][r.Date] = true
		if r.Date.Before(st.FirstScan) {
			st.FirstScan = r.Date
		}
		if r.Date.After(st.LastScan) {
			st.LastScan = r.Date
		}
	}
	out := make([]SourceStats, 0, len(byerr))
	for src, st := range byerr {
		st.DistinctCerts = len(certSets[src])
		st.Scans = len(dateSets[src])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FirstScan.Before(out[j].FirstScan) })
	return out
}

// Vendors returns the vendor names present in the labels, sorted.
func (a *Analyzer) Vendors() []string {
	set := make(map[string]bool)
	for _, l := range a.labels {
		set[l.Vendor] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
