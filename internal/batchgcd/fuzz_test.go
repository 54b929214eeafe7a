package batchgcd_test

import (
	"context"
	"encoding/binary"
	"math/big"
	"slices"
	"testing"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/distgcd"
)

// fuzzPool is the primes most fuzzed moduli are products of: sixteen
// of at most 32 bits, so a product fits 64 bits and a dozen moduli drawn
// from it share primes often.
var fuzzPool = []uint64{
	3, 5, 7, 65537, 1000003, 1000033, 1000037, 1000039,
	2147483647, 2147483629, 2147483587, 2147483579, 4294967291, 4294967279, 4294967231, 4294967197,
}

// decodeModuli reads up to 12 moduli from data, each led by a byte
// whose low bits pick the kind: five kinds in eight are a product of
// two pool primes (the next byte's nibbles), and the rest are a raw
// 64-bit value, a small value from -4 to 251 (0, 1 and evens among
// them), or a copy of an earlier modulus.
func decodeModuli(data []byte) []*big.Int {
	var out []*big.Int
	for len(data) > 0 && len(out) < 12 {
		kind := data[0] % 8
		data = data[1:]
		arg := byte(0)
		if len(data) > 0 {
			arg = data[0]
		}
		switch {
		case kind < 5:
			p, q := fuzzPool[arg>>4], fuzzPool[arg&15]
			out = append(out, new(big.Int).Mul(new(big.Int).SetUint64(p), new(big.Int).SetUint64(q)))
			data = data[min(1, len(data)):]
		case kind == 5:
			var raw [8]byte
			n := copy(raw[:], data)
			data = data[n:]
			out = append(out, new(big.Int).SetUint64(binary.BigEndian.Uint64(raw[:])))
		case kind == 6:
			out = append(out, big.NewInt(int64(arg)-4))
			data = data[min(1, len(data)):]
		case len(out) > 0:
			out = append(out, new(big.Int).Set(out[int(arg)%len(out)]))
			data = data[min(1, len(data)):]
		}
	}
	return out
}

// poolProduct reports whether n is a product of two fuzzPool primes.
func poolProduct(n *big.Int) bool {
	if !n.IsUint64() {
		return false
	}
	v := n.Uint64()
	for _, p := range fuzzPool {
		if v%p == 0 && slices.Contains(fuzzPool, v/p) {
			return true
		}
	}
	return false
}

// FuzzBatchFactor holds the three batch GCDs to one another: the single
// tree (Factor), the quadratic baseline (FactorPairwise) and the
// partitioned run at k = 3 (distgcd.Run) name the same vulnerable
// indices, the two trees the same divisor gcd(N, ∏ of the other distinct
// moduli), and the baseline's divisor, a GCD with one other modulus,
// divides it. An input all three cannot factor — none, or one below 1 —
// all three reject. Splits over Factor's results gives only splits
// 1 < P <= Q with P·Q = N, and splits every flagged modulus when each
// input is a product of two pool primes.
func FuzzBatchFactor(f *testing.F) {
	f.Add([]byte{0, 0x01, 1, 0x02, 2, 0x34})
	f.Add([]byte{6, 4, 6, 5, 0, 0x11})
	f.Add([]byte{6, 14, 6, 10, 6, 9, 6, 15, 7, 0})
	f.Add([]byte{5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xc5, 0, 0xfe, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		moduli := decodeModuli(data)
		single, errSingle := batchgcd.Factor(moduli)
		pairwise, errPairwise := batchgcd.FactorPairwise(moduli)
		dist, _, errDist := distgcd.Run(context.Background(), moduli, distgcd.Options{Subsets: 3})
		if (errSingle != nil) != (errPairwise != nil) || (errSingle != nil) != (errDist != nil) {
			t.Fatalf("moduli %v: Factor err %v, FactorPairwise err %v, distgcd err %v", moduli, errSingle, errPairwise, errDist)
		}
		if errSingle != nil {
			return
		}
		byIndex := func(rs []batchgcd.Result) map[int]*big.Int {
			m := make(map[int]*big.Int, len(rs))
			for _, r := range rs {
				if _, dup := m[r.Index]; dup {
					t.Fatalf("moduli %v: index %d reported twice", moduli, r.Index)
				}
				m[r.Index] = r.Divisor
			}
			return m
		}
		s, p, d := byIndex(single), byIndex(pairwise), byIndex(dist)
		if len(s) != len(p) || len(s) != len(d) {
			t.Fatalf("moduli %v: %d vulnerable by Factor, %d by FactorPairwise, %d by distgcd", moduli, len(s), len(p), len(d))
		}
		var r big.Int
		for i, div := range s {
			n := moduli[i]
			if div.Cmp(big.NewInt(1)) <= 0 || r.Mod(n, div).Sign() != 0 {
				t.Fatalf("moduli %v: Factor divisor %v of modulus %d (%v) is trivial or does not divide it", moduli, div, i, n)
			}
			if dd, ok := d[i]; !ok || dd.Cmp(div) != 0 {
				t.Fatalf("moduli %v: modulus %d: Factor divisor %v, distgcd %v", moduli, i, div, dd)
			}
			pd, ok := p[i]
			if !ok || pd.Cmp(big.NewInt(1)) <= 0 || r.Mod(div, pd).Sign() != 0 {
				t.Fatalf("moduli %v: modulus %d: FactorPairwise divisor %v does not divide Factor's %v", moduli, i, pd, div)
			}
		}
		pooled := true
		for _, n := range moduli {
			pooled = pooled && poolProduct(n)
		}
		var ns, divs []*big.Int
		for _, res := range single {
			ns, divs = append(ns, moduli[res.Index]), append(divs, res.Divisor)
		}
		for k, sp := range batchgcd.Splits(ns, divs, nil, nil) {
			if sp == nil {
				if pooled {
					t.Fatalf("moduli %v: Splits left modulus %d (%v, divisor %v) whole", moduli, single[k].Index, ns[k], divs[k])
				}
				continue
			}
			if sp.P.Cmp(big.NewInt(1)) <= 0 || sp.P.Cmp(sp.Q) > 0 || r.Mul(sp.P, sp.Q).Cmp(ns[k]) != 0 {
				t.Fatalf("moduli %v: Splits gave %v = %v·%v", moduli, ns[k], sp.P, sp.Q)
			}
		}
	})
}
