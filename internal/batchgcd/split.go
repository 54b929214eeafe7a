package batchgcd

import "math/big"

// Split is a modulus's recovered factorization, P <= Q.
type Split struct{ P, Q *big.Int }

// Splits turns batch-GCD divisors into factorizations: out[i] splits
// moduli[i] by divisors[i], or is nil when nothing does. A proper divisor
// splits its modulus through SplitModulus; a trivial one, or one that
// does not divide, gives nil. A divisor equal to the modulus (both primes
// shared, as in a prime clique) is split by the first proper GCD found
// with a distinct prime in known or recovered by an earlier split, then
// with another degenerate modulus or one of others, each list tried
// newest first. Primes first, newest first, means a k-prime clique costs
// about k GCDs per key, not one per member nor one per prime recovered
// from unrelated keys.
func Splits(moduli, divisors, others, known []*big.Int) []*Split {
	out := make([]*Split, len(moduli))
	var primes, pairs []*big.Int
	seen := make(map[string]bool)
	remember := func(ps ...*big.Int) {
		for _, p := range ps {
			if key := string(p.Bytes()); !seen[key] {
				seen[key] = true
				primes = append(primes, p)
			}
		}
	}
	remember(known...)
	var degenerate []int
	for i, n := range moduli {
		if divisors[i].Cmp(n) == 0 {
			degenerate, pairs = append(degenerate, i), append(pairs, n)
		} else if p, q, err := SplitModulus(n, divisors[i]); err == nil {
			out[i] = &Split{P: p, Q: q}
			remember(p, q)
		}
	}
	pairs = append(pairs, others...)
	g := new(big.Int)
	for _, i := range degenerate {
		d := properGCD(g, moduli[i], primes)
		if d == nil {
			d = properGCD(g, moduli[i], pairs)
		}
		if d != nil {
			p, q, _ := SplitModulus(moduli[i], d) // d is proper: no error
			out[i] = &Split{P: p, Q: q}
			remember(p, q)
		}
	}
	return out
}

// properGCD returns the first gcd(n, m) strictly between 1 and n over ms
// from last to first, or nil; the result is g's storage.
func properGCD(g, n *big.Int, ms []*big.Int) *big.Int {
	for k := len(ms) - 1; k >= 0; k-- {
		if g.GCD(nil, nil, n, ms[k]).Cmp(bigOne) > 0 && g.Cmp(n) < 0 {
			return g
		}
	}
	return nil
}
