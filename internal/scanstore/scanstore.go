// Package scanstore is the study's dataset layer: it accumulates host
// records (an IP/certificate pair observed on a given scan date, the unit
// the paper counts 1.5 billion of), deduplicates certificates and RSA
// moduli, and answers the aggregate queries behind Table 1, Table 3 and
// Figure 1. It stands in for the paper's MySQL database.
package scanstore

import (
	"bytes"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
)

// Protocol identifies the scanned service.
type Protocol string

// Protocols in the study: HTTPS is analyzed fully; the rest only feed
// moduli into the batch GCD run (Table 4).
const (
	HTTPS Protocol = "HTTPS"
	SSH   Protocol = "SSH"
	POP3S Protocol = "POP3S"
	IMAPS Protocol = "IMAPS"
	SMTPS Protocol = "SMTPS"
)

// Source identifies the scan project a record came from (Section 3.1).
type Source string

// Scan data sources, in chronological order of first appearance.
const (
	SourceEFF       Source = "EFF"
	SourcePQ        Source = "P&Q"
	SourceEcosystem Source = "Ecosystem"
	SourceRapid7    Source = "Rapid7"
	SourceCensys    Source = "Censys"
)

// Serving-layer sources: moduli that entered a corpus through the check
// service's write paths rather than a scan project. They never feed the
// paper's per-source tables (report rendering marks them unknown), and
// keeping them distinct stops replicated or user-submitted keys from
// polluting scan-source statistics and attribution.
const (
	// SourceAPI marks a modulus submitted through POST /v1/ingest; the
	// record's IP is the submitting client's.
	SourceAPI Source = "API"
	// SourceSync marks a modulus replicated from a cluster peer via
	// /v1/sync; the record's IP is the peer's address, and the original
	// observation's provenance lives on the origin replica.
	SourceSync Source = "Sync"
)

// HostRecord is one observation: a host at an IP served a certificate on
// a date.
type HostRecord struct {
	IP       string
	Date     time.Time
	Source   Source
	Protocol Protocol
	// CertFP keys into the store's distinct-certificate table. For bare
	// keys (SSH and the mail protocols when only the key was kept) it is
	// zero and ModKey is set directly.
	CertFP [32]byte
	// ModKey keys into the distinct-modulus table.
	ModKey string
	// RSAOnly records that the host advertised RSA key exchange with no
	// forward-secret alternative during the handshake — the Section 2.1
	// passive-decryption exposure (74% of vulnerable devices in the
	// paper's April 2016 data).
	RSAOnly bool
}

// Observation is the full-fidelity input record; AddCertObservation and
// AddBareKeyObservation are conveniences over Add.
type Observation struct {
	IP       string
	Date     time.Time
	Source   Source
	Protocol Protocol
	// Cert is the served certificate; nil for bare-key protocols, in
	// which case Modulus must be set.
	Cert    *certs.Certificate
	Modulus *big.Int
	RSAOnly bool
}

// Store accumulates records. It is safe for concurrent use: the scanner
// harvests with many workers.
type Store struct {
	mu      sync.RWMutex
	records []HostRecord
	certs   map[[32]byte]*certs.Certificate
	// fps is the fingerprint of each certificate pointer in certs, so a
	// repeat observation of a stored pointer skips the re-encode.
	fps    map[*certs.Certificate][32]byte
	moduli map[string]*big.Int
	// modOrder preserves first-seen order so DistinctModuli is stable;
	// certOrder does the same for certificates. Both are append-only,
	// which is what makes a Checkpoint a plain position triple.
	modOrder  []string
	certOrder [][32]byte
}

// New returns an empty store.
func New() *Store {
	return &Store{
		certs:  make(map[[32]byte]*certs.Certificate),
		fps:    make(map[*certs.Certificate][32]byte),
		moduli: make(map[string]*big.Int),
	}
}

// Add records an observation. A certificate is not changed once
// stored: the store keys it by its fingerprint, hands the pointer out
// through DistinctCerts and Cert, and takes a later observation of the
// same pointer at the fingerprint it computed the first time.
func (s *Store) Add(o Observation) error {
	rec := HostRecord{
		IP: o.IP, Date: o.Date, Source: o.Source, Protocol: o.Protocol,
		RSAOnly: o.RSAOnly,
	}
	var n *big.Int
	if o.Cert != nil {
		s.mu.RLock()
		fp, ok := s.fps[o.Cert]
		s.mu.RUnlock()
		if !ok {
			var err error
			if fp, err = o.Cert.Fingerprint(); err != nil {
				return fmt.Errorf("scanstore: %w", err)
			}
		}
		rec.CertFP = fp
		rec.ModKey = o.Cert.ModulusKey()
		n = o.Cert.N
	} else if o.Modulus != nil {
		rec.ModKey = string(o.Modulus.Bytes())
		n = o.Modulus
	} else {
		return fmt.Errorf("scanstore: observation carries neither certificate nor modulus")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if o.Cert != nil {
		s.addCertLocked(rec.CertFP, o.Cert)
	}
	s.addModulusLocked(rec.ModKey, n)
	s.records = append(s.records, rec)
	return nil
}

// AddCertObservation records that ip served cert on date via the given
// source/protocol.
func (s *Store) AddCertObservation(ip string, date time.Time, src Source, proto Protocol, cert *certs.Certificate) error {
	return s.Add(Observation{IP: ip, Date: date, Source: src, Protocol: proto, Cert: cert})
}

// AddBareKeyObservation records a host serving a bare RSA public key
// (SSH host keys; mail-protocol scans where only moduli were extracted).
func (s *Store) AddBareKeyObservation(ip string, date time.Time, src Source, proto Protocol, n *big.Int) {
	// The only error path requires a certificate; bare keys cannot hit it.
	_ = s.Add(Observation{IP: ip, Date: date, Source: src, Protocol: proto, Modulus: n})
}

func (s *Store) addModulusLocked(key string, n *big.Int) {
	if _, ok := s.moduli[key]; !ok {
		s.moduli[key] = n
		s.modOrder = append(s.modOrder, key)
	}
}

func (s *Store) addCertLocked(fp [32]byte, c *certs.Certificate) {
	if _, ok := s.certs[fp]; !ok {
		s.certs[fp] = c
		s.fps[c] = fp
		s.certOrder = append(s.certOrder, fp)
	}
}

// Records returns all host records. The returned slice is shared; treat
// it as read-only.
func (s *Store) Records() []HostRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.records
}

// DistinctCerts returns every distinct certificate, sorted by serial
// then fingerprint for deterministic iteration.
func (s *Store) DistinctCerts() []*certs.Certificate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*certs.Certificate, 0, len(s.certs))
	for _, c := range s.certs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].SerialNumber.Cmp(out[j].SerialNumber); c != 0 {
			return c < 0
		}
		return out[i].ModulusKey() < out[j].ModulusKey()
	})
	return out
}

// Cert returns the distinct certificate for a fingerprint, or nil.
func (s *Store) Cert(fp [32]byte) *certs.Certificate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.certs[fp]
}

// DistinctModuli returns every distinct modulus in first-seen order,
// together with a parallel slice of map keys so callers can translate
// batch-GCD result indices back to moduli.
func (s *Store) DistinctModuli() ([]*big.Int, []string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*big.Int, len(s.modOrder))
	keys := make([]string, len(s.modOrder))
	for i, k := range s.modOrder {
		out[i] = s.moduli[k]
		keys[i] = k
	}
	return out, keys
}

// Stats are the Table 1 aggregates over an optional protocol filter
// (empty Protocol means all).
type Stats struct {
	HostRecords         int
	DistinctCerts       int
	DistinctModuli      int
	ScanDates           int
	FirstScan, LastScan time.Time
}

// Stats computes aggregates for one protocol ("" for all).
func (s *Store) Stats(proto Protocol) Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	certSet := make(map[[32]byte]bool)
	modSet := make(map[string]bool)
	dateSet := make(map[int]bool) // calendar days, as (year·13 + month)·32 + day
	for _, r := range s.records {
		if proto != "" && r.Protocol != proto {
			continue
		}
		st.HostRecords++
		if r.CertFP != ([32]byte{}) {
			certSet[r.CertFP] = true
		}
		modSet[r.ModKey] = true
		y, m, d := r.Date.Date()
		dateSet[(y*13+int(m))*32+d] = true
		if st.FirstScan.IsZero() || r.Date.Before(st.FirstScan) {
			st.FirstScan = r.Date
		}
		if r.Date.After(st.LastScan) {
			st.LastScan = r.Date
		}
	}
	st.DistinctCerts = len(certSet)
	st.DistinctModuli = len(modSet)
	st.ScanDates = len(dateSet)
	return st
}

// ScanDates returns the distinct scan dates for a protocol in ascending
// order.
func (s *Store) ScanDates(proto Protocol) []time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[time.Time]bool)
	for _, r := range s.records {
		if proto != "" && r.Protocol != proto {
			continue
		}
		set[r.Date] = true
	}
	out := make([]time.Time, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// RecordsOn returns the records for one scan date and protocol.
func (s *Store) RecordsOn(date time.Time, proto Protocol) []HostRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []HostRecord
	for _, r := range s.records {
		if r.Date.Equal(date) && (proto == "" || r.Protocol == proto) {
			out = append(out, r)
		}
	}
	return out
}

// Served is what the store observed serving one modulus.
type Served struct {
	// Certs are the distinct certificates carrying the modulus, by
	// serial number, ties broken by fingerprint.
	Certs []*certs.Certificate
	// IPs are the distinct addresses that served it on any protocol,
	// sorted: the Internet Rimon detector counts these (922 IPs, one
	// key).
	IPs []string
}

// ByModulus answers every per-modulus question in one walk of the
// store: what served each distinct modulus, keyed like DistinctModuli.
func (s *Store) ByModulus() map[string]Served {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Served, len(s.modOrder))
	fps := append([][32]byte(nil), s.certOrder...)
	sort.Slice(fps, func(i, j int) bool {
		if c := s.certs[fps[i]].SerialNumber.Cmp(s.certs[fps[j]].SerialNumber); c != 0 {
			return c < 0
		}
		return bytes.Compare(fps[i][:], fps[j][:]) < 0
	})
	for _, fp := range fps {
		c := s.certs[fp]
		k := c.ModulusKey()
		v := out[k]
		v.Certs = append(v.Certs, c)
		out[k] = v
	}
	for _, r := range s.records {
		v := out[r.ModKey]
		// A modulus's records mostly repeat one host month after month:
		// skip a repeat of the last address here, and leave the rest
		// to the sort-and-compact below.
		if n := len(v.IPs); n > 0 && v.IPs[n-1] == r.IP {
			continue
		}
		v.IPs = append(v.IPs, r.IP)
		out[r.ModKey] = v
	}
	for k, v := range out {
		sort.Strings(v.IPs)
		v.IPs = slices.Compact(v.IPs)
		out[k] = v
	}
	return out
}

// Checkpoint marks a position in the store's three append-only tables.
// Because records, certificates and moduli are only ever appended (in
// first-seen order), "everything after this checkpoint" is a pure
// positional slice — the handle the incremental-ingest path uses to cut
// delta segments without diffing contents.
type Checkpoint struct {
	Records int `json:"records"`
	Certs   int `json:"certs"`
	Moduli  int `json:"moduli"`
}

// Checkpoint returns the store's current position.
func (s *Store) Checkpoint() Checkpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Checkpoint{Records: len(s.records), Certs: len(s.certOrder), Moduli: len(s.modOrder)}
}

// replayLocked builds a self-contained store from a subset of records,
// pulling each record's certificate and modulus from the parent. The
// result is a valid standalone Store: every referenced certificate is
// present, even when it was first seen before the subset begins.
func (s *Store) replayLocked(recs []HostRecord) *Store {
	out := New()
	for _, r := range recs {
		if r.CertFP != ([32]byte{}) {
			if c := s.certs[r.CertFP]; c != nil {
				out.addCertLocked(r.CertFP, c)
			}
		}
		if n := s.moduli[r.ModKey]; n != nil {
			out.addModulusLocked(r.ModKey, n)
		}
		out.records = append(out.records, r)
	}
	return out
}

// DeltaOn returns a self-contained store holding one scan date's records
// for a protocol ("" for all) — the per-month delta of the longitudinal
// loop.
func (s *Store) DeltaOn(date time.Time, proto Protocol) *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var recs []HostRecord
	for _, r := range s.records {
		if r.Date.Equal(date) && (proto == "" || r.Protocol == proto) {
			recs = append(recs, r)
		}
	}
	return s.replayLocked(recs)
}
