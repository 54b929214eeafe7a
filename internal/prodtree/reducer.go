package prodtree

import (
	"context"
	"fmt"
	"math/big"

	"github.com/factorable/weakkeys/internal/kernel"
)

// Reducer computes x mod n, remainder only, for operands x many times
// longer than n — a shard product or an upper tree node against one
// modulus. big.Int's division estimates, multiplies back and stores a
// quotient word for every word of x; a Reducer instead folds x in half
// around a word boundary m, x = H·Bᵐ + L ≡ H·(Bᵐ mod n) + L (B the word
// base), down to the lowest fold point, and divides only what is left:
// foldBase lengths of n plus the len(n)+1 words each fold may run past
// its point — some tens of words under a two-word modulus, against the
// thousands of the product. Each fold is one multiplication of a long
// number by a constant as short as n, so the work is math/big's vector
// multiply-accumulate over long operands: len(n) word multiplications
// per word of x in total, and no quotient.
//
// The constants B^(foldBase·len(n)·2ʲ) mod n come from repeated squaring,
// are extended lazily to the longest operand seen and serve every
// reduction under the same n. The fold accumulators grow to the longest
// operand's length and are kept: Reset points a Reducer at another
// modulus, dropping the constants' values but not their storage or the
// accumulators', so a caller reducing many operands under many short
// moduli (keycheck's sweepKey, a novel check's sweep of the shard
// products) can keep one Reducer per goroutine, or pool them, and stop
// allocating a product's length of scratch, and the constants, per
// modulus. Many operands
// under one modulus (an ingest's shard products against its delta's
// root) go to ModEach, which derives the constants once, for the
// longest, and folds the operands side by side on them; the ingest then
// multiplies the residues together and descends the delta's tree once
// (batchgcd.Batch.ForeignDivisors).
// A Reducer never writes its operands (tree nodes are shared and
// immutable) and is not safe for concurrent use.
type Reducer struct {
	n *big.Int
	k int // len(n.Bits())
	// pow[j] = B^point(j) mod n for the levels computed under n; the
	// values past len(pow), up to cap(pow), are storage kept from
	// earlier moduli.
	pow []big.Int
	// Folds alternate between the two acc values, each reading the other
	// (or the caller's operand) through hi and lo, which only ever view
	// storage they do not own and are emptied before Mod returns. q takes
	// the last division's short quotient, and sq a constant's square.
	acc           [2]big.Int
	hi, lo, q, sq big.Int
}

// foldBase is the lowest fold point in multiples of len(n). A fold at m
// words shortens its operand by m − len(n) − 1 words, so folds below a
// few lengths of n cost what the division they save would have.
const foldBase = 4

const wordBits = wordBytes * 8

var one = big.NewInt(1)

// NewReducer returns a Reducer for the modulus n, which it keeps by
// reference and never writes. Like division by zero in math/big, a
// modulus below 1 panics.
func NewReducer(n *big.Int) *Reducer {
	r := new(Reducer)
	r.Reset(n)
	return r
}

// Reset points r at the modulus n, as NewReducer(n) would, keeping the
// scratch earlier reductions grew. Reset(nil) drops the modulus and
// zeroes the words of every constant, of a constant's square and of the
// last quotient, leaving r to be Reset again before its next Mod: what
// a pooled Reducer is put back as, so the pool holds neither a caller's
// modulus nor the values from which it divides back out.
func (r *Reducer) Reset(n *big.Int) {
	k := 0
	if n != nil {
		if n.Sign() <= 0 {
			panic("prodtree: Reducer modulus must be positive")
		}
		k = len(n.Bits())
	} else {
		all := r.pow[:cap(r.pow)]
		for i := range all {
			Wipe(&all[i])
		}
		Wipe(&r.sq)
		Wipe(&r.q)
	}
	r.n, r.k, r.pow = n, k, r.pow[:0]
}

// Wipe sets x to 0 and zeroes every word of its storage, which it keeps.
func Wipe(x *big.Int) {
	w := x.Bits()
	clear(w[:cap(w)])
	x.SetBits(w[:0])
}

// point returns fold point j in words.
func (r *Reducer) point(j int) int { return foldBase * r.k << j }

// constant returns B^point(j) mod n, squaring up to level j on first
// use into the storage earlier moduli left.
func (r *Reducer) constant(j int) *big.Int {
	for i := len(r.pow); i <= j; i++ {
		if i == 0 {
			r.sq.Lsh(one, uint(r.point(0)*wordBits))
		} else {
			r.sq.Mul(&r.pow[i-1], &r.pow[i-1])
		}
		if i < cap(r.pow) {
			r.pow = r.pow[:i+1]
		} else {
			r.pow = append(r.pow, big.Int{})
		}
		r.q.QuoRem(&r.sq, r.n, &r.pow[i])
	}
	return &r.pow[j]
}

// level returns the fold level an operand of w words starts at: the
// lowest whose point, doubled, reaches w.
func (r *Reducer) level(w int) int {
	j := 0
	for 2*r.point(j) < w {
		j++
	}
	return j
}

// ModEach returns x mod n for every x, side by side on the kernel pool.
// Before any worker starts it derives, on r, the constants for the
// longest x, which writes r.pow and the scratch a constant is squared
// and divided in (r.sq, r.q). Each x then folds on a Reducer of its own
// that shares r.pow's storage: safe only because every level a shorter
// x folds at is already in r.pow, so no worker's Mod calls constant past
// len(pow), which would append into that shared storage. xs are only
// read.
func (r *Reducer) ModEach(ctx context.Context, xs []*big.Int) ([]*big.Int, error) {
	longest := 0
	for _, x := range xs {
		longest = max(longest, len(x.Bits()))
	}
	if longest > r.point(0) { // else no x is folded, and a constant would cost a division
		r.constant(r.level(longest))
	}
	zs := make([]*big.Int, len(xs))
	err := kernel.FromContext(ctx).Run(ctx, len(xs), func(i int, _ *kernel.Arena) {
		// pow already holds every level this x takes, so constant never
		// writes it.
		w := Reducer{n: r.n, k: r.k, pow: r.pow}
		zs[i] = w.Mod(new(big.Int), xs[i])
	})
	if err != nil {
		return nil, fmt.Errorf("prodtree: reduction cancelled: %w", err)
	}
	return zs, nil
}

// Mod sets z to x mod n, the canonical 0 ≤ z < n of big.Int.Mod, and
// returns z. x is only read.
func (r *Reducer) Mod(z, x *big.Int) *big.Int {
	neg := x.Sign() < 0
	cur := x.Bits()
	// Start at the lowest fold point that leaves H no longer than L, then
	// take every point below it in turn: each fold about halves cur. A
	// fold's result runs past its point by len(n)+1 words more than its
	// operand ran past twice that point, so the excess grows by len(n)+1 a
	// level and the last division sees point(0) + levels·(len(n)+1) words
	// at most. An operand no longer than the lowest point is not folded.
	for a, j := 0, r.level(len(cur)); j >= 0; j-- {
		m := r.point(j)
		if len(cur) <= m {
			continue
		}
		acc := &r.acc[a]
		acc.Mul(r.hi.SetBits(cur[m:]), r.constant(j))
		acc.Add(acc, r.lo.SetBits(cur[:m]))
		cur, a = acc.Bits(), 1-a
	}
	r.q.QuoRem(r.lo.SetBits(cur), r.n, z)
	r.hi.SetBits(nil)
	r.lo.SetBits(nil)
	if neg && z.Sign() != 0 {
		z.Sub(r.n, z)
	}
	return z
}
