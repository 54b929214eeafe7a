package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
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

// FuzzCover drives one check round of the cover loop over a rendezvous
// placement of 1-8 replicas, R 1-4 and 1-64 shards, with arbitrary
// needed shards, usable replicas and per-replica failed shards (one
// byte-rotated mask). checkRound asserts that every needed shard is
// asked of exactly one replica that owns it, that an unusable replica
// is asked only when no usable candidate is left, and that no more
// replicas are asked than the per-shard first-owner rule would.
func FuzzCover(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(8), uint64(0xff), uint8(0xff), uint64(0))
	f.Add(uint8(5), uint8(3), uint8(16), uint64(0xf0f0), uint8(0x1b), uint64(0x00ff00ff00ff00ff))
	f.Add(uint8(8), uint8(1), uint8(64), ^uint64(0), uint8(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, nReplicas, replication, shards uint8, need uint64, usableBits uint8, failedBits uint64) {
		n := int(nReplicas)%8 + 1
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("r%d", i)
		}
		p, err := NewPlacement(names, int(shards)%MaxShards+1, int(replication)%4+1)
		if err != nil {
			t.Fatal(err)
		}
		usable := make([]bool, n)
		failed := make([]uint64, n)
		for i := range usable {
			usable[i] = usableBits&(1<<i) != 0
			failed[i] = bits.RotateLeft64(failedBits, 8*i) & p.ownedMask[i]
		}
		checkRound(t, p, need&p.allShards(), usable, failed)
	})
}
