package prodtree

import "math/big"

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
// reduction under the same n. A Reducer never writes its operands (tree
// nodes are shared and immutable) and is not safe for concurrent use:
// make one per call site, as one would a scratch quotient.
type Reducer struct {
	n   *big.Int
	k   int        // len(n.Bits())
	pow []*big.Int // pow[j] = B^point(j) mod n
	// Folds alternate between the two acc values, each reading the other
	// (or the caller's operand) through hi and lo, which only ever view
	// storage they do not own and are emptied before Mod returns. q takes
	// the last division's short quotient.
	acc       [2]big.Int
	hi, lo, q big.Int
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
	if n.Sign() <= 0 {
		panic("prodtree: Reducer modulus must be positive")
	}
	return &Reducer{n: n, k: len(n.Bits())}
}

// point returns fold point j in words.
func (r *Reducer) point(j int) int { return foldBase * r.k << j }

// constant returns B^point(j) mod n, squaring up to level j on first use.
func (r *Reducer) constant(j int) *big.Int {
	for len(r.pow) <= j {
		c := new(big.Int)
		if len(r.pow) == 0 {
			c.Lsh(one, uint(r.point(0)*wordBits))
		} else {
			last := r.pow[len(r.pow)-1]
			c.Mul(last, last)
		}
		r.pow = append(r.pow, c.Mod(c, r.n))
	}
	return r.pow[j]
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
	j := 0
	for 2*r.point(j) < len(cur) {
		j++
	}
	for a := 0; j >= 0; j-- {
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
