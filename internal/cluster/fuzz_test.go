package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/factorable/weakkeys/internal/keycheck"
)

// FuzzDecodeSyncPage feeds arbitrary bytes to the puller's /v1/sync page
// decoder, the one parser that reads what another process wrote. It must
// not panic; a refusal returns the zero page; an accepted page never
// claims more without advancing past since, survives re-encoding as the
// origin's handler would write it, and hands every modulus string to the
// hex parser the puller uses (which may refuse it, not panic). Seeds are
// a real page from Journal.Handler's encoder and near misses;
// testdata/fuzz/FuzzDecodeSyncPage adds the shapes JSON lets through.
func FuzzDecodeSyncPage(f *testing.F) {
	real, err := json.Marshal(syncResponse{Generation: 7, ModuliHex: []string{"c0ffee", "0badf00d"}, More: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real, uint64(3))
	f.Add(real, uint64(7)) // stuck: more, but no further than since
	f.Add(real[:len(real)/2], uint64(0))
	f.Add([]byte(`{"generation":0,"moduli_hex":[]}`), uint64(0))
	f.Add([]byte(`null`), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, since uint64) {
		sr, err := decodeSyncPage(bytes.NewReader(data), since)
		if err != nil {
			if !reflect.DeepEqual(sr, syncResponse{}) {
				t.Fatalf("refused page came back non-zero: %+v", sr)
			}
			return
		}
		if sr.More && sr.Generation <= since {
			t.Fatalf("accepted a page stuck at %d: %+v", since, sr)
		}
		again, err := json.Marshal(sr)
		if err != nil {
			t.Fatalf("accepted page does not re-encode: %v", err)
		}
		sr2, err := decodeSyncPage(bytes.NewReader(again), since)
		if err != nil || !reflect.DeepEqual(sr, sr2) {
			t.Fatalf("page %+v does not round-trip: %+v, %v", sr, sr2, err)
		}
		for _, hex := range sr.ModuliHex {
			if n, err := keycheck.ParseModulusHex(hex); err == nil && n.Sign() <= 0 {
				t.Fatalf("modulus %q parsed to %v", hex, n)
			}
		}
	})
}
