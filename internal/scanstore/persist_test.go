package scanstore

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/factorable/weakkeys/internal/certs"
)

// saveWhole saves s as a segment based at the zero checkpoint, the
// whole-store form.
func saveWhole(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveDelta(&buf, Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadWhole reads a whole-store file into a new store.
func loadWhole(data []byte) (*Store, error) {
	s := New()
	return s, s.LoadSince(bytes.NewReader(data))
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	c1, c2 := newCert(t, 60), newCert(t, 61)
	s.AddCertObservation("10.0.0.1", date(2012, 6, 15), SourceEcosystem, HTTPS, c1)
	s.AddCertObservation("10.0.0.2", date(2014, 4, 15), SourceRapid7, HTTPS, c2)
	s.AddCertObservation("10.0.0.1", date(2014, 4, 15), SourceRapid7, HTTPS, c1)
	s.AddBareKeyObservation("10.9.9.9", date(2015, 10, 29), SourceCensys, SSH, big.NewInt(0xF00DF00D1))

	got, err := loadWhole(saveWhole(t, s))
	if err != nil {
		t.Fatal(err)
	}

	a, b := s.Stats(""), got.Stats("")
	if a != b {
		t.Errorf("stats mismatch: %+v vs %+v", a, b)
	}
	mods1, keys1 := s.DistinctModuli()
	mods2, keys2 := got.DistinctModuli()
	if len(mods1) != len(mods2) {
		t.Fatalf("moduli count: %d vs %d", len(mods1), len(mods2))
	}
	for i := range mods1 {
		if mods1[i].Cmp(mods2[i]) != 0 || keys1[i] != keys2[i] {
			t.Errorf("modulus %d mismatch (order must be preserved)", i)
		}
	}
	fp, _ := c1.Fingerprint()
	rc := got.Cert(fp)
	if rc == nil || rc.Subject != c1.Subject {
		t.Error("certificate content lost")
	}
	if err := rc.Verify(nil); err != nil {
		t.Errorf("reloaded certificate fails verification: %v", err)
	}
	if len(got.Records()) != 4 {
		t.Errorf("records: %d", len(got.Records()))
	}
	if !slices.Equal(got.certOrder, s.certOrder) {
		t.Error("certificate order lost (first-seen order must be preserved)")
	}
}

// TestSaveIsDeterministic: one store saves to the same bytes every time,
// and so does the store reloaded from them. The saves walk the
// first-seen tables, never a map, so a corpus file is a pure function of
// what was scanned.
func TestSaveIsDeterministic(t *testing.T) {
	s := New()
	for i := int64(0); i < 12; i++ {
		s.AddCertObservation(fmt.Sprintf("10.0.0.%d", i), date(2014, 4, 15), SourceRapid7, HTTPS, newCert(t, 100+i))
	}
	want := saveWhole(t, s)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(saveWhole(t, s), want) {
			t.Fatalf("save %d of the same store differs from the first", i+2)
		}
	}
	got, err := loadWhole(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveWhole(t, got), want) {
		t.Error("the reloaded store saves differently from the original")
	}
}

// TestLoadsWholeStoreFormat: files the older whole-store Save wrote (a
// gob of Version, Records, CertDER and Moduli) still load, as a segment
// based at the zero checkpoint.
func TestLoadsWholeStoreFormat(t *testing.T) {
	type snapshot struct {
		Version int
		Records []HostRecord
		CertDER [][]byte
		Moduli  [][]byte
	}
	s := New()
	c1, c2 := newCert(t, 62), newCert(t, 63)
	s.AddCertObservation("10.0.0.1", date(2012, 6, 15), SourceEcosystem, HTTPS, c1)
	s.AddCertObservation("10.0.0.2", date(2014, 4, 15), SourceRapid7, HTTPS, c2)
	s.AddBareKeyObservation("10.9.9.9", date(2015, 10, 29), SourceCensys, SSH, big.NewInt(0xF00DF00D1))
	old := snapshot{Version: 1, Records: s.Records()}
	for _, c := range []*certs.Certificate{c1, c2} {
		der, err := c.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		old.CertDER = append(old.CertDER, der)
	}
	for _, key := range s.modOrder {
		old.Moduli = append(old.Moduli, []byte(key))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := loadWhole(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint() != s.Checkpoint() || got.Stats("") != s.Stats("") {
		t.Errorf("old-format file loaded as %+v / %+v, want %+v / %+v", got.Checkpoint(), got.Stats(""), s.Checkpoint(), s.Stats(""))
	}
	if !bytes.Equal(saveWhole(t, got), saveWhole(t, s)) {
		t.Error("the store loaded from the old format differs from the one it was written from")
	}
}

// TestSaveRacesAdd is the -race regression for the save's capture: a
// save that aliased s.records and gob-encoded it after releasing the
// lock would race a concurrent Add mutating the shared backing array.
// The copy-under-lock makes this quiet under -race.
func TestSaveRacesAdd(t *testing.T) {
	s := New()
	c := newCert(t, 70)
	for i := 0; i < 50; i++ {
		s.AddCertObservation(fmt.Sprintf("10.0.0.%d", i), date(2013, 1, 1), SourceRapid7, HTTPS, c)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.AddCertObservation(fmt.Sprintf("10.1.%d.%d", i/256, i%256), date(2014, 2, 2), SourceCensys, HTTPS, c)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := s.SaveDelta(&buf, Checkpoint{}); err != nil {
				t.Error(err)
				return
			}
			if _, err := loadWhole(buf.Bytes()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(deltaSegment{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := loadWhole(buf.Bytes())
	if err == nil {
		t.Fatal("version-99 file accepted")
	}
	// The error must name both the found and the supported version so an
	// operator knows which side to upgrade.
	if !strings.Contains(err.Error(), "99") || !strings.Contains(err.Error(), fmt.Sprint(deltaVersion)) {
		t.Errorf("error %q does not name found (99) and supported (%d) versions", err, deltaVersion)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := loadWhole([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	got, err := loadWhole(saveWhole(t, New()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats("").HostRecords != 0 {
		t.Error("empty store should stay empty")
	}
}

// TestDeltaSegmentRoundTrip: save a base, keep scanning, cut a delta,
// and replay base + delta elsewhere — the incremental-ingest persistence
// path.
func TestDeltaSegmentRoundTrip(t *testing.T) {
	s := New()
	c1 := newCert(t, 70)
	s.AddCertObservation("10.0.0.1", date(2015, 1, 1), SourceRapid7, HTTPS, c1)
	s.AddBareKeyObservation("10.0.0.2", date(2015, 1, 1), SourceRapid7, SSH, big.NewInt(0xBA5EBA111))

	base := saveWhole(t, s)
	cp := s.Checkpoint()
	if cp.Records != 2 || cp.Certs != 1 || cp.Moduli != 2 {
		t.Fatalf("checkpoint %+v", cp)
	}

	// The delta: a new cert, a new bare key, and a re-observation of the
	// old cert (no new cert/modulus entries for the latter).
	c2 := newCert(t, 71)
	s.AddCertObservation("10.0.0.3", date(2015, 2, 1), SourceRapid7, HTTPS, c2)
	s.AddBareKeyObservation("10.0.0.4", date(2015, 2, 1), SourceRapid7, SSH, big.NewInt(0xC0FFEE123))
	s.AddCertObservation("10.0.0.1", date(2015, 2, 1), SourceRapid7, HTTPS, c1)

	var delta bytes.Buffer
	if err := s.SaveDelta(&delta, cp); err != nil {
		t.Fatal(err)
	}

	got, err := loadWhole(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.LoadSince(bytes.NewReader(delta.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a, b := s.Stats(""), got.Stats(""); a != b {
		t.Errorf("stats mismatch after delta replay: %+v vs %+v", a, b)
	}
	mods1, keys1 := s.DistinctModuli()
	mods2, keys2 := got.DistinctModuli()
	if len(mods1) != len(mods2) {
		t.Fatalf("moduli count: %d vs %d", len(mods1), len(mods2))
	}
	for i := range mods1 {
		if mods1[i].Cmp(mods2[i]) != 0 || keys1[i] != keys2[i] {
			t.Errorf("modulus %d mismatch (order must be preserved)", i)
		}
	}
	if got.Checkpoint() != s.Checkpoint() {
		t.Errorf("positions diverged: %+v vs %+v", got.Checkpoint(), s.Checkpoint())
	}

	// A second application must be rejected: the store has moved past the
	// segment's base.
	if err := got.LoadSince(bytes.NewReader(delta.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "base") {
		t.Errorf("re-applying delta: err = %v, want base mismatch", err)
	}
}

// encodeSegment serializes a hand-built segment the way SaveDelta does.
func encodeSegment(t testing.TB, seg deltaSegment) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(seg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deltaFixture is a one-certificate store at its checkpoint plus the
// valid next segment of its chain (one new certificate, one record).
func deltaFixture(t testing.TB) (*Store, deltaSegment) {
	t.Helper()
	s := New()
	if err := s.AddCertObservation("10.0.0.1", date(2015, 1, 1), SourceRapid7, HTTPS, newCert(t, 90)); err != nil {
		t.Fatal(err)
	}
	c := newCert(t, 91)
	der, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return s, deltaSegment{
		Version: deltaVersion,
		Base:    s.Checkpoint(),
		Records: []HostRecord{{IP: "10.0.0.2", Date: date(2015, 2, 1), Source: SourceRapid7,
			Protocol: HTTPS, CertFP: fp, ModKey: c.ModulusKey()}},
		CertDER: [][]byte{der},
		Moduli:  [][]byte{[]byte(c.ModulusKey())},
	}
}

// TestLoadSinceRejectsWholeSegment: a rejected segment leaves the store
// exactly where it was — a half-applied one would fail the base check of
// every later segment and zscan.LoadCheckpoints could never resume the
// chain — so the valid segment still loads after each rejection.
func TestLoadSinceRejectsWholeSegment(t *testing.T) {
	s, good := deltaFixture(t)
	base := s.Checkpoint()
	// The valid segment broken one way each. Every one still carries the
	// valid certificate first, so a loader that applies before it checks
	// is caught with the store moved. (The same four are checked in as
	// FuzzLoadSince's corpus.)
	badDER, dangling, wrongBase, wrongVersion := good, good, good, good
	badDER.CertDER = [][]byte{good.CertDER[0], {0x30, 0x03, 0x02, 0x01}}
	dangling.Records = append([]HostRecord{good.Records[0]}, HostRecord{IP: "10.0.0.3", CertFP: [32]byte{0xde, 0xad}})
	wrongBase.Base.Records++
	wrongVersion.Version = deltaVersion + 1
	for name, seg := range map[string]deltaSegment{
		"bad cert DER": badDER, "dangling record": dangling,
		"wrong base": wrongBase, "wrong version": wrongVersion,
	} {
		if err := s.LoadSince(bytes.NewReader(encodeSegment(t, seg))); err == nil {
			t.Fatalf("%s: segment accepted", name)
		}
		if got := s.Checkpoint(); got != base {
			t.Fatalf("%s: rejected segment moved the store from %+v to %+v", name, base, got)
		}
	}
	if err := s.LoadSince(bytes.NewReader(encodeSegment(t, good))); err != nil {
		t.Fatalf("valid segment after the rejections: %v", err)
	}
	if got, want := s.Checkpoint(), (Checkpoint{Records: 2, Certs: 2, Moduli: 2}); got != want {
		t.Fatalf("checkpoint after the valid segment = %+v, want %+v", got, want)
	}
}

func TestSaveDeltaBadCheckpoint(t *testing.T) {
	s := New()
	s.AddBareKeyObservation("10.0.0.1", date(2015, 1, 1), SourceRapid7, SSH, big.NewInt(0xABCDEF01))
	var buf bytes.Buffer
	if err := s.SaveDelta(&buf, Checkpoint{Records: 99}); err == nil {
		t.Error("out-of-range checkpoint accepted")
	}
}

// TestDeltaOn: the in-memory per-month delta cut of the longitudinal
// path is self-contained and filters by protocol.
func TestDeltaOn(t *testing.T) {
	s := New()
	c1 := newCert(t, 80)
	s.AddCertObservation("10.0.0.1", date(2015, 1, 1), SourceRapid7, HTTPS, c1)
	s.AddBareKeyObservation("10.0.0.2", date(2015, 2, 1), SourceRapid7, SSH, big.NewInt(0xD00DAD011))
	s.AddCertObservation("10.0.0.3", date(2015, 2, 1), SourceRapid7, HTTPS, c1) // old cert, re-observed

	feb := s.DeltaOn(date(2015, 2, 1), "")
	if len(feb.Records()) != 2 {
		t.Errorf("DeltaOn(feb): %d records, want 2", len(feb.Records()))
	}
	// Self-contained: the re-observed certificate must resolve in the delta.
	fp, _ := c1.Fingerprint()
	if feb.Cert(fp) == nil {
		t.Error("delta lost the re-observed certificate")
	}
	mods, _ := feb.DistinctModuli()
	if len(mods) != 2 {
		t.Errorf("DeltaOn(feb): %d distinct moduli, want 2 (bare key + c1's)", len(mods))
	}
	if ssh := s.DeltaOn(date(2015, 2, 1), SSH); len(ssh.Records()) != 1 {
		t.Errorf("DeltaOn(feb, SSH): %d records, want 1", len(ssh.Records()))
	}
}
