package keycheck

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// opsPool is FuzzSnapshotOps's prime pool: sixteen random 64-bit primes,
// far enough apart that no key of two falls to the Fermat probe, so a
// key no other key shares with is clean to the last probe.
var opsPool = genPrimes(rand.New(rand.NewSource(16)), 16)

// opsKey decodes a byte into one of the 120 keys p·q of two distinct
// pool primes, p < q.
func opsKey(b byte) (n, p, q *big.Int) {
	k := int(b) % 120
	for i := 0; ; i++ {
		if k < len(opsPool)-1-i {
			p, q = opsPool[i], opsPool[i+1+k]
			if p.Cmp(q) > 0 {
				p, q = q, p
			}
			return mul(p, q), p, q
		}
		k -= len(opsPool) - 1 - i
	}
}

// FuzzSnapshotOps runs a snapshot through build, ingest and check steps
// and holds every verdict to the one oracle, batchgcd.Factor over the
// union of the keys seen so far. The bytes decode as: the shard count
// (1 + b%8), then up to 16 steps, each an op byte b%3 — 0 builds afresh
// from the union and 1 ingests, each a batch of b%33 keys read next, and
// 2 checks the one key read next. After every step each member must be
// factored with its two primes when Factor reports it and clean
// otherwise, and each key a check step named that is not a member must
// be shared_factor with Factor's divisor for it against the union, with
// its two primes, or clean.
func FuzzSnapshotOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ctx := context.Background()
		shards := 1 + int(data[0])%8
		data = data[1:]
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		snap := Empty(shards)
		var union, checked []*big.Int
		split := make(map[string][2]*big.Int) // key → its primes
		for step := 0; step < 16; step++ {
			op, ok := next()
			if !ok {
				break
			}
			if op%3 == 2 {
				b, ok := next()
				if !ok {
					break
				}
				n, p, q := opsKey(b)
				checked = append(checked, n)
				split[string(n.Bytes())] = [2]*big.Int{p, q}
				wantFactorVerdicts(t, snap, union, checked, split, step)
				continue
			}
			count, _ := next()
			store := scanstore.New()
			for range int(count) % 33 {
				b, ok := next()
				if !ok {
					break
				}
				n, p, q := opsKey(b)
				split[string(n.Bytes())] = [2]*big.Int{p, q}
				if indexOf(union, n) < 0 {
					union = append(union, n)
				}
				store.AddBareKeyObservation("10.8.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, n)
			}
			var err error
			switch {
			case op%3 == 1:
				snap, _, err = snap.Ingest(ctx, BuildInput{Store: store})
			case len(union) == 0:
				snap = Empty(shards)
			default:
				snap, err = buildFromOracle(ctx, union, split, shards)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			wantFactorVerdicts(t, snap, union, checked, split, step)
		}
	})
}

// indexOf returns the index of n in set, -1 if absent.
func indexOf(set []*big.Int, n *big.Int) int {
	return slices.IndexFunc(set, func(m *big.Int) bool { return m.Cmp(n) == 0 })
}

// buildFromOracle builds a snapshot over union as the study would, its
// factor table holding the primes of every key Factor reports.
func buildFromOracle(ctx context.Context, union []*big.Int, split map[string][2]*big.Int, shards int) (*Snapshot, error) {
	res, err := batchgcd.Factor(union)
	if err != nil {
		return nil, err
	}
	fp := &fingerprint.Result{Factors: make(map[string]fingerprint.Factors)}
	for _, r := range res {
		key := string(union[r.Index].Bytes())
		fp.Factors[key] = fingerprint.Factors{P: split[key][0], Q: split[key][1]}
	}
	store := scanstore.New()
	for _, n := range union {
		store.AddBareKeyObservation("10.8.0.1", date(2016, 1, 1), scanstore.SourceCensys, scanstore.SSH, n)
	}
	return Build(ctx, BuildInput{Store: store, Fingerprint: fp, Shards: shards})
}

// wantFactorVerdicts checks every member of union and every key in
// checked against batchgcd.Factor: over the union for a member, over the
// union and the key for one that is not.
func wantFactorVerdicts(t *testing.T, snap *Snapshot, union, checked []*big.Int, split map[string][2]*big.Int, step int) {
	t.Helper()
	divisorOf := func(set []*big.Int, i int) *big.Int { // of set[i], nil if Factor reports none
		res, err := batchgcd.Factor(set)
		if err != nil {
			t.Fatalf("step %d: oracle: %v", step, err)
		}
		for _, r := range res {
			if r.Index == i {
				return r.Divisor
			}
		}
		return nil
	}
	members := make([]*big.Int, len(union))
	if len(union) > 0 {
		res, err := batchgcd.Factor(union)
		if err != nil {
			t.Fatalf("step %d: oracle: %v", step, err)
		}
		for _, r := range res {
			members[r.Index] = r.Divisor
		}
	}
	want := func(n *big.Int, member bool) {
		v := snap.Check(n)
		pq := split[string(n.Bytes())]
		var d *big.Int
		status := StatusClean
		if member {
			if d = members[indexOf(union, n)]; d != nil {
				status = StatusFactored
			}
		} else if d = divisorOf(append(union[:len(union):len(union)], n), len(union)); d != nil {
			status = StatusSharedFactor
		}
		var divisor, p, q string
		if d != nil {
			p, q = hexOf(pq[0]), hexOf(pq[1])
			if !member {
				divisor = hexOf(d)
			}
		}
		if v.Status != status || v.Known != member || v.Divisor != divisor || v.FactorP != p || v.FactorQ != q {
			t.Fatalf("step %d (%d shards, %d members): %x = %+v, want %s with divisor %q, factors %s·%s (Factor: %v)",
				step, len(snap.shards), len(union), n, v, status, divisor, p, q, d)
		}
	}
	for _, n := range union {
		want(n, true)
	}
	for _, n := range checked {
		if indexOf(union, n) < 0 {
			want(n, false)
		}
	}
}
