package scanstore

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math/big"

	"github.com/factorable/weakkeys/internal/certs"
)

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// snapshot is the serialized form of a Store: records plus the distinct
// certificate DER blobs and the distinct moduli (bare keys have no
// certificate, so moduli must be stored explicitly) in first-seen order.
type snapshot struct {
	Version int
	Records []HostRecord
	CertDER [][]byte
	Moduli  [][]byte
}

// Save writes the store to w as gzip-compressed gob. The format is the
// stand-in for the paper's MySQL scan database: 1.5B host records lived
// on a 6TB SSD cache; a full simulated corpus is a few tens of MB.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	snap := snapshot{
		Version: snapshotVersion,
		// Copy the records under the lock: the gob encode below runs
		// after RUnlock, and a concurrent Add appending to the shared
		// backing array would race the encoder.
		Records: append([]HostRecord(nil), s.records...),
		Moduli:  make([][]byte, 0, len(s.modOrder)),
		CertDER: make([][]byte, 0, len(s.certs)),
	}
	for _, key := range s.modOrder {
		snap.Moduli = append(snap.Moduli, []byte(key))
	}
	var err error
	for _, c := range s.certs {
		var der []byte
		der, err = c.Marshal()
		if err != nil {
			break
		}
		snap.CertDER = append(snap.CertDER, der)
	}
	s.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("scanstore: save: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(snap); err != nil {
		return fmt.Errorf("scanstore: save: %w", err)
	}
	return zw.Close()
}

// Load reads a store previously written with Save.
func Load(r io.Reader) (*Store, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("scanstore: load: %w", err)
	}
	defer zr.Close()
	var snap snapshot
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		return nil, fmt.Errorf("scanstore: load: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("scanstore: snapshot version %d not supported (this build reads version %d)",
			snap.Version, snapshotVersion)
	}
	s := New()
	for _, der := range snap.CertDER {
		c, err := certs.Parse(der)
		if err != nil {
			return nil, fmt.Errorf("scanstore: load cert: %w", err)
		}
		fp, err := c.Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("scanstore: load cert: %w", err)
		}
		s.addCertLocked(fp, c)
	}
	for _, mod := range snap.Moduli {
		s.addModulusLocked(string(mod), new(big.Int).SetBytes(mod))
	}
	s.records = snap.Records
	// Integrity: every record's cert fingerprint must resolve (bare keys
	// have a zero fingerprint).
	for i, rec := range s.records {
		if rec.CertFP == ([32]byte{}) {
			continue
		}
		if _, ok := s.certs[rec.CertFP]; !ok {
			return nil, fmt.Errorf("scanstore: record %d references missing certificate", i)
		}
	}
	return s, nil
}

// deltaVersion guards the on-disk delta-segment format.
const deltaVersion = 1

// deltaSegment is the serialized form of "everything after a
// checkpoint": the new records, plus only the certificates and moduli
// first seen after it. A segment is not self-contained — records may
// reference certificates the base snapshot already holds — so it only
// loads on top of a store that contains its base.
type deltaSegment struct {
	Version int
	Base    Checkpoint
	Records []HostRecord
	CertDER [][]byte
	Moduli  [][]byte
}

// SaveDelta writes everything added after the checkpoint as a
// gzip-compressed gob segment. Cutting a segment is a positional slice
// of the three append-only tables — no content diffing — which is what
// keeps the save O(delta) while the store grows.
func (s *Store) SaveDelta(w io.Writer, since Checkpoint) error {
	s.mu.RLock()
	if since.Records < 0 || since.Records > len(s.records) ||
		since.Certs < 0 || since.Certs > len(s.certOrder) ||
		since.Moduli < 0 || since.Moduli > len(s.modOrder) {
		s.mu.RUnlock()
		return fmt.Errorf("scanstore: save delta: checkpoint %+v out of range", since)
	}
	seg := deltaSegment{
		Version: deltaVersion,
		Base:    since,
		Records: append([]HostRecord(nil), s.records[since.Records:]...),
		Moduli:  make([][]byte, 0, len(s.modOrder)-since.Moduli),
		CertDER: make([][]byte, 0, len(s.certOrder)-since.Certs),
	}
	for _, key := range s.modOrder[since.Moduli:] {
		seg.Moduli = append(seg.Moduli, []byte(key))
	}
	var err error
	for _, fp := range s.certOrder[since.Certs:] {
		var der []byte
		der, err = s.certs[fp].Marshal()
		if err != nil {
			break
		}
		seg.CertDER = append(seg.CertDER, der)
	}
	s.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("scanstore: save delta: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(seg); err != nil {
		return fmt.Errorf("scanstore: save delta: %w", err)
	}
	return zw.Close()
}

// LoadSince appends a delta segment to the store. The store must be at
// exactly the segment's base checkpoint — segments chain, each one's
// base being the position the previous save left the store at — and
// every record in the segment must resolve its certificate against the
// segment or the existing store. A segment that fails any check is
// rejected whole: everything is parsed and resolved first and the store
// is mutated last, so after an error the store is where it was and the
// next valid segment of the chain still loads.
func (s *Store) LoadSince(r io.Reader) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("scanstore: load delta: %w", err)
	}
	defer zr.Close()
	var seg deltaSegment
	if err := gob.NewDecoder(zr).Decode(&seg); err != nil {
		return fmt.Errorf("scanstore: load delta: %w", err)
	}
	if seg.Version != deltaVersion {
		return fmt.Errorf("scanstore: delta version %d not supported (this build reads version %d)",
			seg.Version, deltaVersion)
	}
	newCerts := make(map[[32]byte]*certs.Certificate, len(seg.CertDER))
	order := make([][32]byte, 0, len(seg.CertDER))
	for _, der := range seg.CertDER {
		c, err := certs.Parse(der)
		if err != nil {
			return fmt.Errorf("scanstore: load delta cert: %w", err)
		}
		fp, err := c.Fingerprint()
		if err != nil {
			return fmt.Errorf("scanstore: load delta cert: %w", err)
		}
		newCerts[fp] = c
		order = append(order, fp)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if got := (Checkpoint{Records: len(s.records), Certs: len(s.certOrder), Moduli: len(s.modOrder)}); got != seg.Base {
		return fmt.Errorf("scanstore: delta base %+v does not match store position %+v", seg.Base, got)
	}
	for i, rec := range seg.Records {
		if rec.CertFP == ([32]byte{}) || newCerts[rec.CertFP] != nil {
			continue
		}
		if _, ok := s.certs[rec.CertFP]; !ok {
			return fmt.Errorf("scanstore: delta record %d references missing certificate", i)
		}
	}
	for _, fp := range order {
		s.addCertLocked(fp, newCerts[fp])
	}
	for _, mod := range seg.Moduli {
		s.addModulusLocked(string(mod), new(big.Int).SetBytes(mod))
	}
	s.records = append(s.records, seg.Records...)
	return nil
}
