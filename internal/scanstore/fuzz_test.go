package scanstore

import (
	"bytes"
	"testing"
)

// FuzzLoadSince feeds arbitrary bytes to the delta-segment decoder on
// top of a fixed one-certificate store. It must not panic, and whatever
// it rejects must leave the store where it was: the valid next segment
// of the chain still loads afterwards. Seeds are a real SaveDelta
// segment and truncations of it; testdata/fuzz/FuzzLoadSince adds the
// well-formed segments LoadSince must reject after decoding them.
func FuzzLoadSince(f *testing.F) {
	src, _ := deltaFixture(f)
	base := src.Checkpoint()
	baseCert := src.DistinctCerts()[0]
	if err := src.AddCertObservation("10.0.0.2", date(2015, 2, 1), SourceRapid7, HTTPS, newCert(f, 91)); err != nil {
		f.Fatal(err)
	}
	var real bytes.Buffer
	if err := src.SaveDelta(&real, base); err != nil {
		f.Fatal(err)
	}
	valid := real.Bytes()
	f.Add(valid)
	for _, n := range []int{0, 10, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		if err := s.AddCertObservation("10.0.0.1", date(2015, 1, 1), SourceRapid7, HTTPS, baseCert); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadSince(bytes.NewReader(data)); err == nil {
			return
		}
		if got := s.Checkpoint(); got != base {
			t.Fatalf("rejected segment moved the store from %+v to %+v", base, got)
		}
		if err := s.LoadSince(bytes.NewReader(valid)); err != nil {
			t.Fatalf("valid segment no longer loads after a rejection: %v", err)
		}
	})
}
