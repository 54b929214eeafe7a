// Package batchgcd factors RSA moduli that share prime factors, using
// Bernstein's quasilinear batch GCD algorithm as adapted by Heninger,
// Durumeric, Wustrow and Halderman (USENIX Security 2012) and scaled up in
// Hastings, Fried and Heninger (IMC 2016).
//
// Given moduli N1..Nn the algorithm computes P = ∏Ni with a product tree,
// reduces zi = (P/Ni) mod Ni with a remainder tree (see OwnResidues), and
// reports gcd(Ni, zi) ≠ 1 whenever Ni shares a factor with at least one
// other modulus in the batch. Total cost is quasilinear in the input size,
// versus quadratic for the naive all-pairs comparison (also provided here
// as the baseline the paper measures against).
package batchgcd

import (
	"context"
	"errors"
	"fmt"
	"math/big"
)

// Result is the outcome of a batch GCD run for one input modulus.
type Result struct {
	// Index of the modulus in the input slice.
	Index int
	// Divisor is a nontrivial common divisor shared with at least one
	// other input modulus. For the dominant shared-single-prime failure
	// mode this is the shared prime p itself; when both prime factors are
	// shared with other moduli (e.g. the IBM 9-prime clique) the divisor
	// can equal the modulus, and Splits recovers the split.
	Divisor *big.Int
}

// ErrNoInput is returned when Factor is called with no moduli.
var ErrNoInput = errors.New("batchgcd: no input moduli")

// Factor runs the batch GCD over moduli and returns one Result per
// vulnerable modulus (a modulus sharing a factor with any other input).
// Duplicate moduli are NOT reported as vulnerable against themselves:
// exact duplicates are skipped by deduplicating internally, matching the
// paper's pipeline which deduplicates the 81M distinct moduli first.
// Input values are not modified.
func Factor(moduli []*big.Int) ([]Result, error) {
	return FactorCtx(context.Background(), moduli)
}

// FactorCtx is Factor with cancellation: the context is plumbed into the
// product- and remainder-tree builds and into the final GCD sweep, all
// scheduled on the shared internal/kernel pool with cancellation
// checked per work chunk, so a cancelled run returns promptly with an
// error wrapping the context's.
func FactorCtx(ctx context.Context, moduli []*big.Int) ([]Result, error) {
	b, err := NewBatch(ctx, moduli)
	if err != nil {
		return nil, err
	}
	own, err := b.OwnResidues(ctx)
	if err != nil {
		return nil, err
	}
	divs, err := b.Divisors(ctx, own)
	if err != nil {
		return nil, err
	}
	return b.Results(divs), nil
}

var bigOne = big.NewInt(1)

// Dedup returns the distinct moduli in first-seen order and, for each,
// the list of original indices that held that value.
func Dedup(moduli []*big.Int) (distinct []*big.Int, backrefs [][]int) {
	seen := make(map[string]int, len(moduli))
	for i, m := range moduli {
		key := string(m.Bytes())
		if j, ok := seen[key]; ok {
			backrefs[j] = append(backrefs[j], i)
			continue
		}
		seen[key] = len(distinct)
		distinct = append(distinct, m)
		backrefs = append(backrefs, []int{i})
	}
	return distinct, backrefs
}

// SplitModulus splits modulus N given one nontrivial divisor d, returning
// the two factors (p, q) with p <= q, or an error if d does not divide N
// or the division is trivial. When the batch-GCD divisor equals N itself
// (both primes shared), Splits recovers the split.
func SplitModulus(n, d *big.Int) (p, q *big.Int, err error) {
	if d.Sign() <= 0 || d.Cmp(bigOne) == 0 || d.Cmp(n) >= 0 {
		return nil, nil, errors.New("batchgcd: divisor is trivial for this modulus")
	}
	var rem big.Int
	q = new(big.Int)
	q.QuoRem(n, d, &rem)
	if rem.Sign() != 0 {
		return nil, nil, errors.New("batchgcd: divisor does not divide modulus")
	}
	p = new(big.Int).Set(d)
	if p.Cmp(q) > 0 {
		p, q = q, p
	}
	return p, q, nil
}

// FactorPairwise is the naive quadratic baseline: it computes gcd for
// every pair of distinct moduli. It is vastly slower than Factor for
// large inputs — the paper notes it is infeasible at the 81M scale — but
// it recovers exact per-pair divisors, which Factor cannot when a modulus
// shares both of its primes with other inputs. The benchmark harness for
// Figure 2 measures both. Like Factor, it refuses a modulus below 1.
func FactorPairwise(moduli []*big.Int) ([]Result, error) {
	if len(moduli) == 0 {
		return nil, ErrNoInput
	}
	for i, n := range moduli {
		if n.Sign() <= 0 {
			return nil, fmt.Errorf("batchgcd: modulus %d is not positive", i)
		}
	}
	found := make(map[int]*big.Int)
	var g big.Int
	for i := 0; i < len(moduli); i++ {
		for j := i + 1; j < len(moduli); j++ {
			if moduli[i].Cmp(moduli[j]) == 0 {
				continue // duplicates are the same key, not a shared factor
			}
			g.GCD(nil, nil, moduli[i], moduli[j])
			if g.Cmp(bigOne) == 0 {
				continue
			}
			for _, idx := range [2]int{i, j} {
				if prev, ok := found[idx]; !ok || prev.Cmp(moduli[idx]) == 0 {
					// Prefer a proper divisor over the degenerate
					// whole-modulus divisor.
					found[idx] = new(big.Int).Set(&g)
				}
			}
		}
	}
	results := make([]Result, 0, len(found))
	for i := 0; i < len(moduli); i++ {
		if d, ok := found[i]; ok {
			results = append(results, Result{Index: i, Divisor: d})
		}
	}
	return results, nil
}
